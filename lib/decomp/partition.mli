(** Shared representation of vertex partitions (clusterings) and their
    quality measures, used by the low-diameter decompositions. *)

type t = {
  labels : int array;      (** vertex -> cluster id in [0 .. k-1] *)
  k : int;
  inter_edges : int list;  (** edge ids crossing between clusters *)
}

(** Build from a label array (computes [k] and the crossing edges).
    Labels are renumbered to [0 .. k-1] preserving first appearance. *)
val of_labels : Sparse_graph.Graph.t -> int array -> t

(** Fraction of edges crossing, [|inter| / m]; 0 when m = 0. *)
val cut_fraction : Sparse_graph.Graph.t -> t -> float

(** Maximum over clusters of the strong diameter of the induced subgraph
    (infinite — [max_int] — if some induced cluster is disconnected):
    {!Sparse_graph.Graph_ops.max_cluster_diameter} of the partition's
    clusters. *)
val max_cluster_diameter : Sparse_graph.Graph.t -> t -> int

(** Every vertex has a label in range. *)
val is_valid : Sparse_graph.Graph.t -> t -> bool
