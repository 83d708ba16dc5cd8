(** Weighted push-relabel max-flow with bounded-height early termination.

    The solver works in the multi-source / multi-sink supply form used by
    the cut-matching game: every vertex may carry integer [supply] (units
    of excess to route) and integer [sink_cap] (units it can absorb).
    Heights are capped at [limit]: a vertex lifted to the cap retires with
    its remaining excess, and the level structure of a retired run yields
    a cut certificate ({!level_cut}).

    With [limit >= n + 1] the routed value is the exact maximum flow —
    unsaturated sinks never activate, so they stay at height 0, and any
    vertex whose excess can still reach one keeps height below [n].

    The inner loops (push, relabel, gap, global relabel) are
    allocation-free and counted; the counters are also recorded as
    [flow.*] Obs metrics on every run. *)

type outcome = {
  routed : int;          (** units absorbed at sinks (incl. self-absorption) *)
  supply_total : int;
  height : int array;
  excess : int array;    (** unrouted excess left at each vertex *)
  absorbed : int array;  (** units absorbed at each sink *)
  pushes : int;
  relabels : int;
  gap_jumps : int;
  global_relabels : int;
}

(** [routed = supply_total]: every unit reached a sink. *)
val fully_routed : outcome -> bool

(** [run net ~supply ~sink_cap ~limit] routes the supplies toward the
    sinks over the residual network, mutating [net.cap]. A global
    relabel rebuilds exact distances after every 8 passes' worth of work
    over the arcs.
    @raise Invalid_argument on negative supplies/capacities, length
    mismatches, or [limit < 1]. *)
val run :
  Net.t -> supply:int array -> sink_cap:int array -> limit:int -> outcome

(** [level_cut g ~height ~limit] sweeps the height thresholds of a
    terminated bounded run: for each level [l], the side
    [{v | height v >= l}] is separated from the unsaturated sinks; the
    threshold of minimum conductance wins. [None] when every height is 0
    (nothing was relabeled, so there is no level structure to cut). *)
val level_cut :
  Sparse_graph.Graph.t -> height:int array -> limit:int ->
  (bool array * float) option
