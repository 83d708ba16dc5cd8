(** The framework of Theorem 2.6: expander-decompose, elect a maximum-degree
    leader per cluster, gather each cluster's topology at its leader, and
    let the leader solve locally. The final broadcast of results back over
    each cluster is not run here; its cost is one leader-rooted
    {!Distr.Bfs_tree.run} (one word per intra edge, diameter rounds).

    Two execution modes:
    - [Simulated]: leader election, low-out-degree orientation and
      random-walk routing (Lemma 2.4) actually run on the CONGEST
      simulator, with real round/bandwidth accounting. The walk budget
      doubles until gathering completes.
    - [Charged]: the communication phases are skipped (results produced
      centrally, bit-identical to a successful simulated run) and the
      construction cost is charged by the Theorem 2.1 formula. Use for
      large benchmark instances where simulating every token is too slow.

    The expander decomposition itself is always computed centrally (see
    DESIGN.md, substitution 1) and charged [ceil(eps^-2 * log2(n)^3)]
    rounds, the epsilon^-O(1) log^O(1) n shape of Theorem 2.1 with
    exponents (2, 3). *)

type mode = Simulated | Charged

(** Which expander-decomposition engine drives the framework: the
    flow-based cut-matching game ([Flow.Decomp_engine], default), whose
    accepted clusters keep the game's embedded matchings as their
    witness, or recursive spectral bipartitioning, which keeps none.
    Both produce the same result record with the same thresholds and are
    deterministic for every pool size; spectral stays selectable as the
    witness-less comparison and the cross-check oracle. *)
type engine = Spectral_engine | Cut_matching_engine

val engine_name : engine -> string

type cluster = {
  leader : int;                     (** v_i*, in original vertex ids *)
  members : int list;               (** V_i, sorted *)
  sub : Sparse_graph.Graph.t;       (** G[V_i] *)
  mapping : Sparse_graph.Graph_ops.mapping;  (** sub <-> original *)
}

type report = {
  epsilon : float;
  phi : float;                      (** certified conductance target *)
  k : int;                          (** number of clusters *)
  inter_edges : int;
  inter_fraction : float;
  charged_construction_rounds : int;
  diameter_bound : int;             (** bound b used for flood phases *)
  election_stats : Congest.Network.stats option;
  orientation_stats : Congest.Network.stats option;
  routing_stats : Congest.Network.stats option;
  simulated_rounds : int;           (** total measured rounds of the
                                        simulated phases (0 in Charged) *)
}

type t = {
  graph : Sparse_graph.Graph.t;
  decomposition : Spectral.Expander_decomposition.t;
  view : Distr.Cluster_view.t;
  leader_of : int array;
  clusters : cluster array;
  report : report;
}

(** [prepare ?mode ?engine ?pool g ~epsilon ~seed] runs decomposition,
    election, and gathering. In [Simulated] mode (default) the phases run
    on the CONGEST simulator; gathering retries with doubled walk budgets
    until complete. [engine] (default [Cut_matching_engine]) selects the
    decomposition engine. The decomposition recursion, the per-cluster
    subgraph construction, and the diameter bound fan out on [pool]
    (default sequential); the result is identical for every pool size.
    @raise Failure if simulated gathering cannot complete within the
    largest budget (does not occur on certified decompositions). *)
val prepare :
  ?mode:mode -> ?engine:engine -> ?pool:Parallel.Pool.t ->
  Sparse_graph.Graph.t -> epsilon:float -> seed:int -> t

(** [solve_locally t f] runs [f] on every cluster (the leader's local
    computation) and returns the per-cluster results. *)
val solve_locally : t -> (cluster -> 'a) -> 'a array

(** [routing_service ?seed ?pool t] builds the expander-routing serving
    layer ({!Route.Service}) over the prepared decomposition: a witness
    hierarchy over the matchings the decomposition retained, answering
    batched demand matrices as a planner or as a CONGEST workload.
    [pool] parallelizes leaf preprocessing and every serve, with
    byte-identical results at any worker count. [seed] is ignored: the
    hierarchy draws no randomness. It stays only because the end-to-end
    benchmark still passes it. *)
val routing_service :
  ?seed:int -> ?pool:Parallel.Pool.t -> t -> Route.Service.t

(** Theorem 2.1 construction-round charge: [ceil(eps^-2 * log2(max n 2)^3)]. *)
val construction_charge : n:int -> epsilon:float -> int

(** Theorem 2.2 deterministic construction charge:
    [ceil(eps^-2 * 2^sqrt(log2 n * log2 log2 n))] — the
    [eps^-O(1) 2^O(sqrt(log n log log n))] shape with exponents (2, 1).
    Reported for comparison in experiment E8; the decomposition itself is
    deterministic given the seed, so the same algorithm realizes both
    statements. *)
val construction_charge_deterministic : n:int -> epsilon:float -> int
