(** Shared input for per-cluster CONGEST algorithms.

    After the clustering step (Theorem 2.6), every vertex knows its own
    cluster id, and — after one round of exchange — the cluster ids of its
    neighbors. All algorithms in this library communicate only along
    intra-cluster edges of the cluster view. *)

type t = {
  graph : Sparse_graph.Graph.t;
  labels : int array;  (** vertex -> cluster id *)
  intra : int array array;
      (** cached CSR-aligned intra-cluster adjacency: [intra.(v)] lists
          [v]'s same-cluster neighbors in ascending order. Built once by
          {!whole} / {!of_labels}; treat as read-only. *)
}

(** View where the whole graph is one cluster. *)
val whole : Sparse_graph.Graph.t -> t

(** View induced by an explicit labelling. *)
val of_labels : Sparse_graph.Graph.t -> int array -> t

(** Degree of [v] counting only intra-cluster edges: [deg_Gi(v)]. *)
val intra_degree : t -> int -> int

(** [flood t v m] is the send list [(w, m)] for every intra-cluster
    neighbor [w] of [v], ascending in [w]. *)
val flood : t -> int -> 'msg -> (int * 'msg) list
