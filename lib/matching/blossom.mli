(** Maximum cardinality matching by Edmonds' blossom algorithm (O(n^3)).

    This is the leader's exact local solver for the planar MCM application
    (Section 3.2): polynomial, so usable on clusters of any size. *)

(** [max_cardinality_matching g] returns the mate array: [mate.(v)] is [v]'s
    partner or [-1]. *)
val max_cardinality_matching : Sparse_graph.Graph.t -> int array

(** Number of matched edges in a mate array. *)
val size : int array -> int

(** [is_valid_matching g mate] checks symmetry and adjacency. *)
val is_valid_matching : Sparse_graph.Graph.t -> int array -> bool

(** [is_maximum g mate] verifies optimality by checking that no augmenting
    path exists (runs one more search phase). *)
val is_maximum : Sparse_graph.Graph.t -> int array -> bool
