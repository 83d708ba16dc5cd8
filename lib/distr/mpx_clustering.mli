(** Distributed Miller–Peng–Xu low-diameter clustering in CONGEST.

    Every vertex draws a shift [delta_u ~ Exp(beta)] and starts flooding its
    id at round [ceil(delta_max) - delta_u] (earlier for larger shifts);
    each vertex joins the first flood to reach it (ties broken by smaller
    origin id). Clusters have radius O(log n / beta) w.h.p. and each edge is
    cut with probability O(beta) — the random-shift decomposition that
    distributed LDD constructions (and the paper's Section 3.5 baseline
    discussion) build on. One id per message. *)

type result = {
  partition : Decomp.Partition.t;
  stats : Congest.Network.stats;
}

(** [run view ~beta ~seed]. Operates within clusters of [view] (pass
    {!Cluster_view.whole} for the full graph).
    @raise Invalid_argument unless [beta > 0]. *)
val run : Cluster_view.t -> beta:float -> seed:int -> result
