(** Low-out-degree edge orientation by iterated peeling (Barenboim–Elkin
    [11], as used in Section 2.2).

    Given an upper bound [density] on the edge density m/n of every
    subgraph (constant for H-minor-free graphs), repeatedly peel the
    vertices whose remaining intra-cluster degree is at most
    [ceil(2 * (1 + delta) * density)] with [delta = 0.5], that is
    [ceil(3 * density)]; a peeled vertex orients all its
    remaining edges outward. At least a constant fraction of the remaining
    vertices peels each phase, so [O(log n)] phases suffice, each phase
    costing one communication round. *)

type result = {
  owner : int array;   (** edge id -> endpoint that owns (out-directs) it;
                           [-1] for inter-cluster edges, which are not
                           oriented *)
  out_degree : int array; (** resulting out-degree per vertex *)
  phases : int;        (** peeling phases used *)
  stats : Congest.Network.stats;
}

(** [run view ~density] orients all intra-cluster edges, with out-degree
    at most [bound ~density]. *)
val run : Cluster_view.t -> density:float -> result

(** The out-degree bound the orientation guarantees, [ceil(3 * density)]. *)
val bound : density:float -> int

(** Verify that every intra-cluster edge is owned by one of its endpoints
    and all out-degrees respect {!bound}. *)
val check : Cluster_view.t -> result -> density:float -> bool
