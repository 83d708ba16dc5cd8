(** Approximate matching algorithms: baselines and the local-improvement
    search used inside the weighted pipeline.

    All functions return mate arrays ([mate.(v)] = partner or -1). *)

(** Greedy by non-increasing weight (ties by edge id): a 1/2-approximation
    of MWM. *)
val greedy : Sparse_graph.Graph.t -> Sparse_graph.Weights.t -> int array

(** Path-growing algorithm of Drake and Hougardy: alternately grow two
    matchings along locally heaviest paths, return the heavier one; 1/2-
    approximation in linear time. *)
val path_growing : Sparse_graph.Graph.t -> Sparse_graph.Weights.t -> int array

(** [local_search g w ?init ~len ~passes ()] improves a matching by
    weight-increasing alternating walks of length at most [len], scanning
    all vertices [passes] times (the bounded-length augmentation shape of
    Duan–Pettie's scaling steps). *)
val local_search :
  Sparse_graph.Graph.t -> Sparse_graph.Weights.t -> ?init:int array ->
  len:int -> passes:int -> unit -> int array

(** Total weight of a matching. *)
val weight : Sparse_graph.Graph.t -> Sparse_graph.Weights.t -> int array -> int
