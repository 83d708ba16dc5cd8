(** First-in first-out queue of ints, stored unboxed in a growable ring:
    the per-slot queues of the two simulator-hosted references in this
    directory, [Walk_reference] (the Lemma 2.4 walk) and
    [Witness_reference] (the planned-path shipper). The production loops,
    [Distr.Walk_routing] and [Distr.Witness_routing], keep flat rings of
    their own. Pop order is push order, as with [Stdlib.Queue]. *)

type t

(** An empty queue; the ring is allocated on the first push. *)
val create : unit -> t

val length : t -> int

(** [push q x] appends [x] at the back. Amortized O(1): a full ring
    doubles. *)
val push : t -> int -> unit

(** [pop q] removes and returns the front element.
    @raise Invalid_argument if [q] is empty. *)
val pop : t -> int
