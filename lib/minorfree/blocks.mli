(** Biconnected components (blocks) via an iterative Hopcroft–Tarjan DFS.

    A block is a maximal subgraph without a cut vertex; bridges form
    two-vertex blocks. Planarity decomposes over blocks, which is how
    {!Planarity} uses this module. *)

(** [blocks g] returns the blocks, each as a list of edge ids. Every edge
    appears in exactly one block. *)
val blocks : Sparse_graph.Graph.t -> int list list
