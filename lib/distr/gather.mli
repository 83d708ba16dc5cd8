(** Topology gathering: the leader of each cluster learns the entire induced
    subgraph [G[V_i]] (Section 2.2, "Information Gathering").

    Pipeline: (1) orient the intra-cluster edges with constant out-degree
    ({!Orientation}); (2) every vertex packs each of its outgoing edges into
    one [O(log n)]-bit token and routes all tokens to the leader with lazy
    random walks ({!Walk_routing}). The leader then holds every edge of its
    cluster exactly once. *)

type result = {
  edges_at_leader : (int * (int * int) list) list;
      (** per leader: the cluster edges it learned, as endpoint pairs *)
  delivery : float;   (** fraction of edge-tokens delivered *)
  orientation_stats : Congest.Network.stats;
  routing_stats : Congest.Network.stats;
}

(** [run view ~leader_of ~density ~walk_len ~seed ~max_rounds] gathers every
    cluster's topology at its leader. [density] bounds the edge density (for
    the orientation); [walk_len] is the per-token walk budget. *)
val run :
  Cluster_view.t ->
  leader_of:int array ->
  density:float ->
  walk_len:int ->
  seed:int ->
  max_rounds:int ->
  result

(** [complete view ~leader_of edges_at_leader] holds when every leader
    learned exactly the edge set of its cluster and no edge outside it.
    It checks either gather: this module's [edges_at_leader] or
    {!Local_gather}'s. *)
val complete :
  Cluster_view.t -> leader_of:int array -> (int * (int * int) list) list -> bool
