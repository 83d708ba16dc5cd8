(** Luby's randomized maximal independent set in CONGEST — the baseline the
    paper's Section 1.1 compares against: a maximal independent set is only
    a (1/Delta)-approximation of MAXIS, whereas the framework achieves
    (1 - epsilon).

    Each phase, every live vertex draws a random word; local minima join the
    MIS and their neighborhoods die. O(log n) phases w.h.p., two rounds per
    phase. *)

type result = {
  in_mis : bool array;
  phases : int;
  stats : Congest.Network.stats;
}

val run : Cluster_view.t -> seed:int -> result

(** The result is independent and maximal with respect to intra-cluster
    edges. *)
val check : Cluster_view.t -> result -> bool
