(* The shipped rule set, in catalog order. *)

let all : Rule.t list =
  [
    Rules_determinism.d001;
    Rules_determinism.d002;
    Rules_determinism.d003;
    Rules_parallel.p001;
    Rules_races.p002;
    Rules_races.p003;
    Rules_alloc.a001;
    Rules_alloc.a002;
    Rules_hygiene.h001;
    Rules_hygiene.s001;
  ]

let find id = List.find_opt (fun (r : Rule.t) -> r.id = id) all
