(** The flat round loop that moves int tokens over directed edges under
    a per-edge cap, shared by {!Walk_routing} (Lemma 2.4's lazy walks)
    and {!Witness_routing} (planned paths).

    The kernel owns the slots (one per directed edge, each a FIFO ring
    of parked tokens), the per-vertex lists of busy slots, the inboxes
    double-buffered by round parity, the worklist of vertices to step,
    and the statistics. A router supplies its token encoding and its
    vertex step, which takes the vertex's inbox and {!park}s the tokens
    it forwards. A round steps the scheduled vertices in ascending id
    order, as {!Congest.Network.run} does; after its step, a vertex
    sends each busy slot's [cap] oldest tokens as one batch into the
    receiver's next-round inbox. *)

type t

(** [create ~off ~dst ~cap ~newest_first]: vertex [v]'s slots are
    [off.(v) .. off.(v + 1) - 1] ([off] has length n + 1), and slot [s]
    sends at most [cap] tokens a round to vertex [dst.(s)]. A batch
    lands oldest first, or newest first when [newest_first] (the
    simulator's order for a batch sent as one message per token). *)
val create :
  off:int array -> dst:int array -> cap:int -> newest_first:bool -> t

(** [reserve bufs i ~live ~need] is [bufs.(i)], first grown (at least
    doubled) to hold [need] elements if it is shorter; its first [live]
    elements are kept. *)
val reserve : int array array -> int -> live:int -> need:int -> int array

(** [park t v s tok] appends [tok] to [v]'s slot [s]. *)
val park : t -> int -> int -> int -> unit

(** [run t ~max_rounds step] steps every vertex in round 1, then each
    vertex that received tokens, holds parked ones, or whose last step
    returned [true], until round [max_rounds] or until none is left.
    [step v inbox k] steps [v] on [inbox.(0 .. k - 1)]. *)
val run : t -> max_rounds:int -> (int -> int array -> int -> bool) -> unit

(** The current round (0 before {!run}), the batches and the tokens sent
    so far, and the tokens parked in slots. *)
val round : t -> int
val flights : t -> int
val sent : t -> int
val parked : t -> int

(** [stats t ~max_rounds ~messages ~flight_bits ~token_bits] is what
    {!Congest.Network.run} reports for a run whose vertices never halt
    ([rounds = max_rounds] when n > 0, [completed = (n = 0)]), a batch
    costing [flight_bits] plus [token_bits] per token. It also records
    [Obs.Meter.net] and [Obs.Meter.active]. *)
val stats :
  t ->
  max_rounds:int ->
  messages:int ->
  flight_bits:int ->
  token_bits:int ->
  Congest.Network.stats
