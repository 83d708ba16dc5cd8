(** Integer counters, gauges and histograms attributed to the calling
    domain's current span. Integer-only by design: every deterministic
    value must merge commutatively. *)

val count : string -> int -> unit
(** Add [v] to the additive counter [name] under the current span. *)

val incr : string -> unit
(** [count name 1]. *)

val set_max : string -> int -> unit
(** Max-merge [v] into the gauge [name] (peak edge bits, max depth...). *)

val hist : string -> int -> unit
(** Record [v] in a power-of-two bucket histogram: increments the
    counter [name.p2_<b>] where [2^b] is the smallest power >= [v]. *)
