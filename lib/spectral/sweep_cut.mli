(** Fiedler-vector computation and Cheeger sweep rounding.

    [fiedler] runs power iteration on the lazy normalized walk matrix
    [W = (I + D^(-1/2) A D^(-1/2)) / 2], deflating the known top eigenvector
    [d^(1/2)]. The returned embedding is [D^(-1/2) x], whose sweep cuts
    satisfy Cheeger's inequality: the best sweep cut's conductance [c] obeys
    [lambda_2 / 2 <= Phi(G) <= c <= sqrt(2 * lambda_2)]. *)

type cut = {
  side : bool array;     (** membership mask of the smaller-volume side *)
  conductance : float;   (** conductance of this cut *)
}

(** [fiedler g ~iters ~seed] returns the (approximate) second-eigenvector
    embedding of the normalized Laplacian. Requires a graph with at least
    one edge. *)
val fiedler : Sparse_graph.Graph.t -> iters:int -> seed:int -> float array

(** [sort_order embedding order] sorts the vertex permutation [order] in
    place by ascending [embedding] value ([Float.compare]), ties by
    vertex id — the order {!sweep} scans. *)
val sort_order : float array -> int array -> unit

(** [key_order keys] is the vertex permutation by ascending integer key,
    ties by vertex id — the order {!sort_order} gives for the same keys
    as floats — by a counting sort. Keys must be non-negative. *)
val key_order : int array -> int array

(** [sweep_order g order] scans the vertices in the given order (a
    permutation of [0 .. n-1]) and returns the prefix cut with minimum
    conductance, the earliest prefix among equals. Requires [1 < n]. *)
val sweep_order : Sparse_graph.Graph.t -> int array -> cut

(** [sweep g embedding] is {!sweep_order} over the order {!sort_order}
    gives. *)
val sweep : Sparse_graph.Graph.t -> float array -> cut

(** [best_cut g ~iters ~seed] combines {!fiedler} and {!sweep}. On a
    disconnected graph it returns a zero-conductance component cut. *)
val best_cut : Sparse_graph.Graph.t -> iters:int -> seed:int -> cut

(** [bfs_sweep g] sweeps the BFS-distance order from a double-sweep
    endpoint: cheap, and finds the structural bottleneck exactly on paths,
    trees, and cycles, where power iteration converges slowly (the spectral
    gap is tiny). *)
val bfs_sweep : Sparse_graph.Graph.t -> cut

(** [tree_cut g] evaluates, for every edge of a DFS spanning tree, the cut
    that separates the subtree below it, and returns the best; exact on
    trees (where the optimum is a single-edge cut) and a useful candidate
    on tree-like graphs. Requires a connected graph with at least one
    edge. *)
val tree_cut : Sparse_graph.Graph.t -> cut

(** [combined_cut g ~iters ~seed] is the best of {!best_cut}, {!bfs_sweep},
    and {!tree_cut} — what the expander decomposition uses. *)
val combined_cut : Sparse_graph.Graph.t -> iters:int -> seed:int -> cut
