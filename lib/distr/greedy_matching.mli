(** Distributed greedy maximal matching in CONGEST (a 1/2-approximation of
    MCM; with weights a baseline for MWM). Randomized proposal rounds: each
    live vertex proposes to one live neighbor (its heaviest incident edge,
    ties by id); mutual or accepted proposals match. *)

type result = {
  mate : int array;   (** matched partner, or -1 *)
  rounds_used : int;
  stats : Congest.Network.stats;
}

(** [run view ?weights ~seed ()] computes a maximal matching over
    intra-cluster edges. With [weights] the greedy prefers locally heavier
    edges (locally-heaviest-edge greedy, a 1/2-approximation for MWM). *)
val run :
  Cluster_view.t -> ?weights:Sparse_graph.Weights.t -> seed:int -> unit ->
  result

(** The matching is valid (symmetric, along intra-cluster edges) and
    maximal. *)
val check : Cluster_view.t -> result -> bool
