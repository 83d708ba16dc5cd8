(** Failed-execution detection for the clustering step (Section 2.3).

    Given a bound [b] on the cluster diameter of a successful execution,
    every vertex computes the maximum id within distance [b] inside its
    cluster, compares with its intra-cluster neighbors, marks itself [*] on
    disagreement, and finally propagates marks for [2b + 1] rounds. The
    paper shows that afterwards either all vertices of a cluster are marked
    (diameter > 2b, certainly failed) or none is (diameter <= b passes
    unmarked; in between, the outcome is uniform per cluster either way). *)

type result = {
  marked : bool array;  (** vertex is marked [*]: its cluster failed *)
  stats : Congest.Network.stats;
}

(** [run view ~b] executes the three phases ([b] + 1 + [2b+1] rounds). *)
val run : Cluster_view.t -> b:int -> result

(** All members of each cluster agree on the mark, clusters of diameter
    at most [b] are unmarked, and clusters of diameter at least [2b + 1]
    are marked. *)
val check : Cluster_view.t -> result -> b:int -> bool
