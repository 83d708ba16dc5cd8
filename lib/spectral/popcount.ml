(* Clearing the lowest set bit once per set bit needs no table, so
   nothing is shared between domains, and [x land (x - 1)] reaches 0 on
   every int, the sign bit included. *)
let popcount x =
  let x = ref x and c = ref 0 in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr c
  done;
  !c
