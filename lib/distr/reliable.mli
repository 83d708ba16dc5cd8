(** Ack / retry / backoff combinator for point-to-point sends over a lossy
    {!Congest.Network}.

    The transport wraps application messages in sequence-numbered
    [Payload] packets. Every received payload is acknowledged (including
    duplicates — the earlier ack may itself have been lost); unacked
    payloads are retransmitted with exponential backoff; receivers
    deduplicate by [(sender, seq)], so the application sees each message
    {e at most once} and — as long as both endpoints stay up and the drop
    rate is below 1 — {e at least once} given enough rounds.

    The state is threaded functionally through the round callback:

    {[
      let st, fresh, acks = Reliable.deliver st inbox in
      (* ... application handles [fresh], enqueues new sends ... *)
      let st = Reliable.send st ~dst x in
      let st, out = Reliable.flush st ~now:r in
      { state = ...; send = acks @ out; halt = ... }
    ]}

    All processing is deterministic: the fresh list preserves inbox order
    (sorted by sender under {!Congest.Network.run}) and retransmissions
    fire in send order. *)

type 'msg packet =
  | Payload of { seq : int; body : 'msg }
  | Ack of { seq : int }

type 'msg t

val create : unit -> 'msg t

(** Declared wire size of a packet given the body's size in bits and the
    per-word bit count: a payload costs [tag + seq word + body], an ack
    [tag + seq word]. *)
val packet_bits : word:int -> body:('msg -> int) -> 'msg packet -> int

(** [send st ~dst m] enqueues [m] for reliable delivery to [dst]. The
    first transmission happens at the next {!flush}. *)
val send : 'msg t -> dst:int -> 'msg -> 'msg t

(** [cancel st ~dst] drops every pending (unacked) payload addressed to
    [dst] — used when a newer value supersedes the queued one. *)
val cancel : 'msg t -> dst:int -> 'msg t

(** [deliver st inbox] processes one round's received packets: returns the
    updated state, the fresh (first-time, deduplicated) application
    messages as [(sender, body)] in inbox order, and the acks to emit this
    round. Acked payloads leave the pending queue. *)
val deliver :
  'msg t -> (int * 'msg packet) list ->
  'msg t * (int * 'msg) list * (int * 'msg packet) list

(** [flush st ~now] emits every due (re)transmission as [(dst, packet)]
    pairs. A payload first transmits at the flush after its {!send}, then
    backs off exponentially (2, 4, 8, capped at 8 rounds — an ack takes
    two rounds to arrive, so retrying sooner is pure congestion).
    [?max_per_dst] caps payloads per destination per flush (earliest
    first, deterministic), for protocols that must respect a tight
    per-edge budget. *)
val flush : ?max_per_dst:int -> 'msg t -> now:int -> 'msg t * (int * 'msg packet) list
