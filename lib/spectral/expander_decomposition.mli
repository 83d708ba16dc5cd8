(** (epsilon, phi) expander decomposition (Theorems 2.1 / 2.2 interface).

    The decomposition partitions the vertex set so that at most an
    [epsilon] fraction of edges cross between clusters and every cluster's
    induced subgraph has conductance at least [phi], with
    [phi = epsilon^O(1) / log^O(1) n] as in Theorem 2.1.

    Implementation (see DESIGN.md, substitution 1): one recursion driver,
    {!drive}, and two cluster judges. The driver splits any cluster that
    has a cut of conductance below [tau = epsilon / (2 log2(2m))] and
    accepts the rest; a standard charging argument (each edge is cut at
    most once, each split removes at most [tau * min-side-volume] edges,
    and the recursion halves the volume) bounds the inter-cluster edges
    by [epsilon * m]. Accepted clusters certify conductance
    [phi >= tau^2 / 4] by Cheeger's inequality (exactly verified for
    small clusters). {!decompose} judges each cluster by its best
    Fiedler sweep cut; [Flow.Decomp_engine] runs the same driver with
    cut heuristics and the cut-matching game as its judge. *)

(** Per-cluster routing witness retained from the recursion that produced
    the cluster. [w_path] is the cluster's address in the recursion tree
    (child ranks from the root) — label order is exactly the
    lexicographic order of these paths, so the tree can be rebuilt from
    them. [w_matchings] (possibly empty) lists the cut-matching game's
    routed matchings, newest first, each as the matched [(src, dst)]
    pairs, the aligned embedded vertex paths and, aligned with those, the
    paths' edge ids ([eids.(i).(q)] joins [paths.(i).(q)] and
    [paths.(i).(q+1)]), all in original vertex and edge ids, so consumers
    never search the graph for an edge; [w_congestion] / [w_dilation]
    bound the embedding's per-edge congestion and path length.
    [w_source] records which engine accepted the cluster ("spectral",
    "cutmatching", "exact", "trivial", "baseline"). Plain data on
    purpose: [lib/flow] fills it in, anything above may consume it
    without depending on the flow engine. *)
type cluster_witness = {
  w_path : int list;
  w_matchings : ((int * int) array * int array array * int array array) list;
  w_congestion : int;
  w_dilation : int;
  w_source : string;
}

(** A witness with no matchings, for engines that certify acceptance
    without routing anything. *)
val no_witness : path:int list -> source:string -> cluster_witness

type t = {
  labels : int array;        (** vertex -> cluster id in [0 .. k-1] *)
  k : int;                   (** number of clusters *)
  inter_edges : int list;    (** ids of inter-cluster edges, [E^r] *)
  epsilon : float;           (** requested epsilon *)
  phi : float;               (** certified conductance target [tau^2 / 4] *)
  tau : float;               (** sweep-cut acceptance threshold *)
  witnesses : cluster_witness array;
      (** indexed by cluster label; [witnesses.(l).w_path] addresses
          cluster [l] in the recursion tree *)
}

(** [threshold ~m ~epsilon] is the split threshold
    [tau = epsilon / (2 log2(2m))] for a graph with [m] edges ([epsilon]
    itself when [m = 0]). *)
val threshold : m:int -> epsilon:float -> float

(** A judge's ruling on one cluster: accept it with this witness (its
    [w_path] is filled in by {!drive}), or split it along this side mask
    over the cluster's induced subgraph. *)
type verdict = Accept of cluster_witness | Cut of bool array

(** [drive ~entry ~span ~singleton ~exact ~judge ~zero ~add ~report ~pool
    g ~epsilon] is the one decomposition recursion.
    Starting from the connected components of [g], every frontier wave
    runs inside span ["level-d"] on [pool]; a task re-splits a
    disconnected cluster into its components, accepts a single vertex
    (witness source [singleton]), rules on clusters of at most 14
    vertices by exhaustive conductance (source [exact]), and hands every
    larger connected cluster to [judge sub mapping ~tau ~seed]. The seed
    is derived from the cluster's identity (depth, smallest member,
    size), never from shared state. Each task's work value is folded with [add] from
    [zero] in task order; [report] receives the total inside [span] when
    observability is on. Labels follow the DFS pre-order of the recursion
    tree, so the result is identical for every pool size.
    @raise Invalid_argument ["<entry>: need 0 < epsilon < 1"] unless
    [0 < epsilon < 1]. *)
val drive :
  entry:string -> span:string -> singleton:string -> exact:string ->
  judge:
    (Sparse_graph.Graph.t -> Sparse_graph.Graph_ops.mapping -> tau:float ->
     seed:int -> verdict * 's) ->
  zero:'s -> add:('s -> 's -> 's) -> report:('s -> unit) ->
  pool:Parallel.Pool.t -> Sparse_graph.Graph.t -> epsilon:float -> t * 's

(** [decompose ?pool g ~epsilon] computes the decomposition with
    {!drive} (span ["decompose"], pool default sequential), judging each
    cluster by its best combined sweep cut ({!Sweep_cut.combined_cut},
    120 power-iteration steps); every witness has source ["spectral"].
    @raise Invalid_argument unless [0 < epsilon < 1]. *)
val decompose :
  ?pool:Parallel.Pool.t -> Sparse_graph.Graph.t -> epsilon:float -> t

(** Fraction of edges that are inter-cluster, [|E^r| / m] (0 when m = 0). *)
val inter_fraction : Sparse_graph.Graph.t -> t -> float

(** [verify ~power_iters ~seed g t] checks the two decomposition
    requirements and returns [(inter_ok, min_cluster_cut_conductance)]:
    [inter_ok] is [|E^r| <= epsilon * m]; the float is the smallest
    conductance of a cut found in any cluster: the exact value for
    clusters of at most 14 vertices, and for larger clusters the best
    sweep cut after [power_iters] steps from [seed], which is a real cut
    and so an upper bound on that cluster's conductance. The minimum is
    taken over the clusters of
    {!Sparse_graph.Graph_ops.clusters}, certified on [pool]. The
    centralized decompositions are checked at [~power_iters:120 ~seed:0],
    the distributed one at [~power_iters:200 ~seed:1]. *)
val verify :
  power_iters:int -> seed:int -> ?pool:Parallel.Pool.t ->
  Sparse_graph.Graph.t -> t -> bool * float

(** Naive baseline for ablation: BFS balls of fixed radius, no conductance
    control. Same result shape, with [phi = 0.]. *)
val bfs_ball_baseline :
  Sparse_graph.Graph.t -> radius:int -> t
