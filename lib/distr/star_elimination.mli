(** The distributed 2-star / 3-double-star elimination of Section 3.2, as a
    CONGEST token protocol.

    Each round-triple: (1) every live degree-1 vertex sends a pendant token
    to its neighbor, and every live degree-2 vertex sends a spoke token
    carrying its hub pair to both hubs; (2) a vertex keeps the pendant token
    with the smallest originator id and bounces the rest, and for each hub
    pair keeps the two smallest spoke originators and bounces the rest
    (both hubs agree because the rule is deterministic); (3) bounced
    originators announce their removal so neighbors update their degrees.
    Triples repeat until a quiet cycle. Matches the centralized
    {!Matching.Preprocess.eliminate_fixpoint} exactly (tested). *)

type result = {
  removed : bool array;   (** vertex was eliminated *)
  iterations : int;       (** elimination cycles executed (incl. the final
                              quiet one) *)
  stats : Congest.Network.stats;
}

(** [run view ~max_iterations] executes the protocol over intra-cluster
    edges. [max_iterations] caps the cycles (n is always enough). *)
val run : Cluster_view.t -> max_iterations:int -> result

(** The surviving subgraph contains no 2-star and no 3-double-star. *)
val check : Cluster_view.t -> result -> bool
