(** Fiedler-vector computation and Cheeger sweep rounding.

    [fiedler] runs power iteration on the lazy normalized walk matrix
    [W = (I + D^(-1/2) A D^(-1/2)) / 2], deflating the known top eigenvector
    [d^(1/2)]. The returned embedding is [D^(-1/2) x], whose sweep cuts
    satisfy Cheeger's inequality: the best sweep cut's conductance [c] obeys
    [lambda_2 / 2 <= Phi(G) <= c <= sqrt(2 * lambda_2)], giving the certified
    lower bound [Phi(G) >= c^2 / 4] used by the expander decomposition. *)

type cut = {
  side : bool array;     (** membership mask of the smaller-volume side *)
  conductance : float;   (** conductance of this cut *)
  lambda2 : float option;
      (** Rayleigh-quotient estimate of the spectral gap, when the cut came
          from a converged spectral embedding; [None] for cuts produced by
          sweeps of non-spectral orders (BFS, tree, degree, projection), so
          no NaN placeholder can leak into reports or benches *)
}

(** [fiedler g ~iters ~seed] returns the (approximate) second-eigenvector
    embedding and its eigenvalue estimate [lambda_2] of the normalized
    Laplacian. Requires a graph with at least one edge. *)
val fiedler :
  Sparse_graph.Graph.t -> iters:int -> seed:int -> float array * float

(** [sweep g embedding] scans the vertices in embedding order and returns
    the prefix cut with minimum conductance. Requires [1 < n]. The
    [lambda2] field is [None] (unknown from the embedding alone). *)
val sweep : Sparse_graph.Graph.t -> float array -> cut

(** [best_cut g ~iters ~seed] combines {!fiedler} and {!sweep}. On a
    disconnected graph it returns a zero-conductance component cut. *)
val best_cut : Sparse_graph.Graph.t -> iters:int -> seed:int -> cut

(** [bfs_sweep g] sweeps the BFS-distance order from a double-sweep
    endpoint: cheap, and finds the structural bottleneck exactly on paths,
    trees, and cycles, where power iteration converges slowly (the spectral
    gap is tiny). [lambda2] is [None]. *)
val bfs_sweep : Sparse_graph.Graph.t -> cut

(** [tree_cut g] evaluates, for every edge of a DFS spanning tree, the cut
    that separates the subtree below it, and returns the best; exact on
    trees (where the optimum is a single-edge cut) and a useful candidate
    on tree-like graphs. Requires a connected graph with at least one
    edge. [lambda2] is [None]. *)
val tree_cut : Sparse_graph.Graph.t -> cut

(** [combined_cut g ~iters ~seed] is the best of {!best_cut}, {!bfs_sweep},
    and {!tree_cut} — what the expander decomposition uses. *)
val combined_cut : Sparse_graph.Graph.t -> iters:int -> seed:int -> cut
