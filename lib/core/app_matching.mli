(** Theorems 3.2 and 1.1: approximate matching via the framework.

    {b MCM on planar graphs} (Section 3.2): eliminate 2-stars and
    3-double-stars so the optimum is Omega(n-bar) (Lemma 3.1), decompose
    the reduced graph with [eps' = c * epsilon], solve each cluster with
    the exact blossom algorithm, and take the union — clusters are
    vertex-disjoint, so no conflicts arise.

    {b MWM on H-minor-free graphs} (Theorem 1.1 shape): walk the weight
    scales from heavy to light (the Duan–Pettie skeleton); at each scale,
    decompose the subgraph of still-eligible edges and let each leader
    extend the global matching inside its cluster (exact subset DP when the
    cluster is small, bounded-length local search otherwise). *)

type result = {
  mate : int array;          (** on the original graph *)
  size : int;                (** matched edges *)
  weight : int;              (** total weight (1 per edge for MCM) *)
  pipeline : Pipeline.t option;  (** last pipeline run (MWM: the last scale) *)
}

(** [mcm_planar ?mode g ~epsilon ~seed] decomposes with
    [eps' = c * epsilon], where [c = 0.25] is the Lemma 3.1 constant. *)
val mcm_planar :
  ?mode:Pipeline.mode -> Sparse_graph.Graph.t -> epsilon:float ->
  seed:int -> result

(** [mwm ?mode g w ~epsilon ~seed]. Clusters of at most 18 vertices, and
    a whole graph of at most 18 vertices, are solved exactly. *)
val mwm :
  ?mode:Pipeline.mode -> Sparse_graph.Graph.t -> Sparse_graph.Weights.t ->
  epsilon:float -> seed:int -> result
