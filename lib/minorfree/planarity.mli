(** Planarity testing by Demoucron–Malgrange–Pertuiset face embedding.

    The graph is decomposed into biconnected blocks ({!Blocks}); each
    non-trivial block is embedded incrementally: starting from a cycle,
    repeatedly choose a fragment (bridge) of the not-yet-embedded part,
    check which faces can host it, and draw one of its paths into such a
    face. Demoucron's theorem: for a biconnected graph the greedy choice
    (prefer fragments with a unique admissible face) succeeds if and only
    if the block is planar. The quick Euler bound [m <= 3n - 6] rejects
    dense inputs immediately.

    Complexity is O(n * m) per block — ample for the paper's cluster-local
    checks, where the leader tests the topology it gathered (Section 3.4). *)

(** [is_planar g] decides planarity of an arbitrary graph. *)
val is_planar : Sparse_graph.Graph.t -> bool

(** [embed_block g] attempts a planar embedding of a {e biconnected} [g],
    returning the face boundaries (each a closed vertex cycle) on success.
    [None] means non-planar.
    @raise Invalid_argument if [g] is not biconnected. *)
val embed_block : Sparse_graph.Graph.t -> int list list option
