(* Integer metrics, attributed to the calling domain's current span.
   Only integers: float sums would make merged values depend on merge
   order and break the cross-jobs parity contract. *)

(* lint: hot *)
let count name v = Rt.add_sum name v

(* lint: hot *)
let incr name = Rt.add_sum name 1

(* lint: hot *)
let set_max name v = Rt.add_max name v

(* power-of-two histogram: one deterministic counter per bucket, so the
   distribution of e.g. cluster sizes survives aggregation *)
let bucket_of v =
  let rec go b acc = if acc >= v then b else go (b + 1) (acc * 2) in
  if v <= 0 then 0 else go 0 1

let hist name v = Rt.add_sum (Printf.sprintf "%s.p2_%02d" name (bucket_of v)) 1
