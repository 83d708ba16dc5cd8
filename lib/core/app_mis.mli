(** Theorem 1.2: (1 - epsilon)-approximate maximum independent set on
    H-minor-free networks (Section 3.1).

    The framework decomposes with parameter [eps' = epsilon / (2d + 1)]
    (d = edge-density bound), each leader solves its cluster exactly (or
    greedily above the exact size cap), and endpoints of inter-cluster
    conflicts are dropped (the set Z of the paper). *)

type result = {
  independent_set : int list;
  size : int;
  conflicts_removed : int;   (** |Z| *)
  pipeline : Pipeline.t;
}

(** [run ?mode ?exact_limit g ~epsilon ~seed]. [exact_limit] (default 120)
    caps the cluster size for the exact branch-and-bound solver; larger
    clusters fall back on min-degree greedy (documented substitution 2 in
    DESIGN.md). *)
val run :
  ?mode:Pipeline.mode -> ?exact_limit:int -> Sparse_graph.Graph.t ->
  epsilon:float -> seed:int -> result

(** Weighted MAXIS through the same framework (the extension the paper's
    Section 1.1 credits to [10, 66]): per-cluster exact weighted solves,
    conflicts across inter-cluster edges resolved by dropping the lighter
    endpoint. [weights.(v) > 0] required. Clusters of up to 100 vertices
    are solved exactly, larger ones greedily. Measured ratios in the test
    suite; no (1 - eps) guarantee is claimed for the weighted case. *)
type weighted_result = {
  w_independent_set : int list;
  total_weight : int;
  w_pipeline : Pipeline.t;
}

val run_weighted :
  ?mode:Pipeline.mode -> Sparse_graph.Graph.t -> weights:int array ->
  epsilon:float -> seed:int -> weighted_result

(** The achieved approximation ratio against a reference optimum. *)
val ratio : result -> opt:int -> float
