(* ceil(log2 n) by integer halving. The floating-point formula
   ceil (log n /. log 2.) rounds up at some exact powers of two (the first
   is n = 2^29, where the quotient lands just above the integer), which
   would inflate every bandwidth budget derived from it by one word. *)
let ceil_log2 n =
  let rec go acc x = if x <= 1 then acc else go (acc + 1) ((x + 1) / 2) in
  go 0 (Int.max n 2)

let id_bits n = ceil_log2 n

let words n k = k * id_bits n
