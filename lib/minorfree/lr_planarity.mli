(** The left-right planarity test (de Fraysseix–Rosenstiehl criterion,
    Brandes' formulation) — a second, independent planarity decision
    procedure in near-linear time.

    Phase 1 orients the graph by DFS, computing for every directed edge its
    low-point, second low-point and nesting depth. Phase 2 re-traverses in
    nesting order maintaining a stack of conflict pairs (left/right
    intervals of back edges); the graph is planar iff no two back edges are
    forced onto the same side with interleaving return heights.

    The test suite cross-validates this implementation against the
    independent Demoucron embedder ({!Planarity}) on thousands of random
    graphs. Every yes/no planarity query in the framework
    ({!Properties}, {!Minor_check.has_clique_minor}) goes through this
    module; {!Planarity} stays for face embeddings and as the
    cross-check oracle. *)

(** [is_planar g] decides planarity. *)
val is_planar : Sparse_graph.Graph.t -> bool
