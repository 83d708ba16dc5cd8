(** CONGEST cost meter: attributes simulator accounting to the enclosing
    span. Hooked by [Congest.Network.run], and by the own round loops of
    [Distr.Walk_routing] and [Distr.Witness_routing] with the figures the
    simulator would report; the metric names are stable schema
    vocabulary. *)

val k_runs : string
val k_rounds : string
val k_messages : string
val k_bits : string
val k_max_edge_bits : string

val k_dropped : string
val k_duplicated : string
val k_crashed_rounds : string
val k_active_vertices : string
val k_inbox_peak_words : string
val k_inbox_final_words : string

val net :
  rounds:int -> messages:int -> total_bits:int -> max_edge_bits:int -> unit
(** Record one network run: [rounds]/[messages]/[total_bits] add to the
    current span's counters; [max_edge_bits] max-merges. Called by
    [Congest.Network.run], [Distr.Walk_routing.run] and
    [Distr.Witness_routing.run] (one message is one flight there). No-op
    while observability is disabled. *)

val active : vertices:int -> unit
(** Record one network run's total scheduled vertex-rounds
    ([net.active_vertices]). Called by [Congest.Network.run],
    [Distr.Walk_routing.run] and [Distr.Witness_routing.run], not by
    [Congest.Network.run_reference], which steps every vertex. No-op
    while observability is disabled. *)

val inbox : peak_words:int -> final_words:int -> unit
(** Record one run's inbox footprint: the high-watermark of machine
    words retained by the inbound arenas, summed over shards
    ([net.inbox_peak_words], max-merged) and the residual footprint at
    run end ([net.inbox_final_words], max-merged). Called by
    [Congest.Network.run] only: the reference loop and the routers' own
    round loops have no arenas, so a [distr.walk_routing] or
    [distr.witness_routing] span records neither key. No-op while
    observability is disabled. *)

val faults : dropped:int -> duplicated:int -> crashed_rounds:int -> unit
(** Record one faulty network run's fault counters ([net.dropped],
    [net.duplicated], [net.crashed_rounds]). Called by the simulator only
    when the fault spec is active, so fault-free profiles carry no fault
    vocabulary. No-op while observability is disabled. *)
