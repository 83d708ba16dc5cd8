(** Source-routed execution of pre-planned demand paths: the
    deterministic counterpart to {!Walk_routing} (lazy random walks,
    Lemma 2.4).

    The expander-routing planner ([lib/route]) turns each demand into a
    concrete vertex path along the witness hierarchy; a {!Bfs_tree}
    parent chain is another such path, so tokens shipped up chains to
    their roots are the deterministic leader gathering of experiment E9.
    This module ships one token per demand along its path in synchronous
    CONGEST rounds. Each edge sends one {e flight} per round: a batch of
    parked tokens costing one framing word plus two id-words (demand,
    position) per token, sized to the bandwidth budget — so under the
    default budget an edge moves [((budget / id_bits) - 1) / 2] tokens
    per round. The excess parks in per-neighbor queues.

    The rounds run on {!Token_loop}, the flat round kernel it shares
    with {!Walk_routing}, not on {!Congest.Network.run}: vertices step
    in ascending order, inboxes fill in sender order and flights keep
    their queue order, so the deliveries, arrival rounds and
    {!Congest.Network.stats} are those the simulator reports for the
    same round function (the test suite keeps it there as the
    reference, and compares the two field for field). It draws no
    randomness: the outcome is a pure function of the plans, so planner
    and shipper deliver the same multiset of demands. *)

type result = {
  delivered : (int * int list) list;
      (** per destination vertex: demand ids absorbed, arrival order *)
  undelivered : int;
      (** demands not delivered, counted against the total so that
          [delivered + undelivered = demands] holds even when tokens are
          cut off in flight at [max_rounds] *)
  held : int;  (** tokens still parked at some vertex when the run ended *)
  last_round : int;
      (** round of the final delivery; no vertex ever halts and idle
          rounds are skipped, as the simulator fast-forwards them, so
          [stats.rounds] reports the round bound, not completion *)
  rounds_of : int array;
      (** per demand: the round its token reached the destination, 0 for
          a self-demand absorbed at init, or -1 if undelivered *)
  stats : Congest.Network.stats;
}

(** [run g ~plans ~max_rounds] routes one token per plan.
    [plans.(d)] is demand [d]'s vertex path — source first, destination
    last; consecutive entries must be edges of [g] (a length-1 plan is a
    self-demand, delivered at init).
    The run records [Obs.Meter.net] and [Obs.Meter.active] as the
    simulator would; it has no inbox arenas, so no [Obs.Meter.inbox].
    @raise Invalid_argument on an empty plan, a plan whose first vertex
    lies outside [[0, n)], or a non-edge step.
    @raise Congest.Network.Congestion_violation when so many demand ids
    make even a one-token flight exceed the budget. *)
val run :
  Sparse_graph.Graph.t ->
  plans:int array array ->
  max_rounds:int ->
  result

(** Every demand is delivered at most once, at its plan's destination,
    and [delivered + undelivered = demands]. *)
val check : plans:int array array -> result -> bool
