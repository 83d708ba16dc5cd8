(* FIFO of immediate ints in a growable power-of-two ring, for the two
   simulator-hosted references (Walk_reference, Witness_reference). They
   park one token per slot, so a push writes one unboxed word: no cons
   cell per element as in [Stdlib.Queue], and nothing for the minor GC
   to promote while a token waits. Capacity only grows; a ring keeps its
   peak size for the life of its router state. *)

type t = {
  mutable buf : int array;  (* length 0 or a power of two *)
  mutable head : int;       (* index of the oldest element *)
  mutable len : int;
}

let create () = { buf = [||]; head = 0; len = 0 }
let length q = q.len

(* unroll the live elements, oldest first, into a buffer twice as large *)
let grow q =
  let cap = Array.length q.buf in
  (* lint: allow A001 amortized doubling growth *)
  let buf = Array.make (if cap = 0 then 8 else 2 * cap) 0 in
  let first = cap - q.head in
  Array.blit q.buf q.head buf 0 first;
  Array.blit q.buf 0 buf first (q.len - first);
  q.buf <- buf;
  q.head <- 0

(* lint: hot *)
let push q x =
  if q.len = Array.length q.buf then grow q;
  let buf = q.buf in
  buf.((q.head + q.len) land (Array.length buf - 1)) <- x;
  q.len <- q.len + 1

(* lint: hot *)
let pop q =
  if q.len = 0 then invalid_arg "Int_fifo.pop: empty";
  let x = q.buf.(q.head) in
  q.head <- (q.head + 1) land (Array.length q.buf - 1);
  q.len <- q.len - 1;
  x
