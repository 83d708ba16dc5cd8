(** First-in first-out queue of ints, stored unboxed in a growable ring.
    {!Witness_routing} parks its int-encoded tokens here (so does the
    simulator-hosted reference walk in the test suite; {!Walk_routing}
    keeps flat rings of its own); pop order is push order, as with
    [Stdlib.Queue]. *)

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
