type crash = {
  vertex : int;
  at_round : int;
  recover_round : int option;
}

type outage = {
  u : int;
  v : int;
  from_round : int;
  until_round : int;
}

type t = {
  seed : int;
  drop_rate : float;
  duplicate_rate : float;
  crashes : crash list;
  outages : outage list;
}

let none =
  { seed = 0; drop_rate = 0.; duplicate_rate = 0.; crashes = []; outages = [] }

let check_rate name r =
  if not (r >= 0. && r <= 1.) then
    invalid_arg (Printf.sprintf "Faults.make: %s %g outside [0, 1]" name r)

let check_crash c =
  if c.vertex < 0 then
    invalid_arg (Printf.sprintf "Faults.make: crash vertex %d < 0" c.vertex);
  if c.at_round < 1 then
    invalid_arg
      (Printf.sprintf "Faults.make: crash round %d < 1 (rounds are 1-based)"
         c.at_round);
  match c.recover_round with
  | Some r when r <= c.at_round ->
      invalid_arg
        (Printf.sprintf
           "Faults.make: vertex %d recovers at round %d <= crash round %d"
           c.vertex r c.at_round)
  | _ -> ()

let check_outage o =
  if o.u < 0 || o.v < 0 then
    invalid_arg "Faults.make: outage endpoint < 0";
  if o.u = o.v then
    invalid_arg (Printf.sprintf "Faults.make: outage self-loop at %d" o.u);
  if o.from_round < 1 then
    invalid_arg
      (Printf.sprintf "Faults.make: outage round %d < 1 (rounds are 1-based)"
         o.from_round);
  if o.until_round < o.from_round then
    invalid_arg
      (Printf.sprintf "Faults.make: outage interval [%d, %d] is empty"
         o.from_round o.until_round)

let make ?(drop_rate = 0.) ?(duplicate_rate = 0.) ?(crashes = [])
    ?(outages = []) ~seed () =
  check_rate "drop_rate" drop_rate;
  check_rate "duplicate_rate" duplicate_rate;
  List.iter check_crash crashes;
  List.iter check_outage outages;
  { seed; drop_rate; duplicate_rate; crashes; outages }

let is_active t =
  t.drop_rate > 0. || t.duplicate_rate > 0. || t.crashes <> []
  || t.outages <> []

(* mixing constants so that spec seed s and, say, an algorithm seed s used
   elsewhere in the same run cannot collide into the same stream *)
let rng t = Random.State.make [| t.seed; 0x6A09; 0xE667; 0xF3BC |]

(* Round-indexed fault bookkeeping shared by every simulator loop: crash /
   recovery schedules keyed by round, the link-outage predicate, and the
   sorted distinct rounds at which a crash or recovery fires (the events
   an event-driven fast-forward must not jump over). All of it dormant
   when the spec is inactive. *)
type tables = {
  crash_at : (int, int) Hashtbl.t;
  recover_at : (int, int) Hashtbl.t;
  link_down : int -> int -> int -> bool;
  event_rounds : int array;
}

let tables t ~n =
  let crash_at : (int, int) Hashtbl.t = Hashtbl.create 7 in
  let recover_at : (int, int) Hashtbl.t = Hashtbl.create 7 in
  if is_active t then
    List.iter
      (fun (c : crash) ->
        if c.vertex < n then begin
          Hashtbl.add crash_at c.at_round c.vertex;
          match c.recover_round with
          | Some r -> Hashtbl.add recover_at r c.vertex
          | None -> ()
        end)
      t.crashes;
  let link_down =
    if t.outages = [] then fun _ _ _ -> false
    else begin
      let tbl : (int * int, int * int) Hashtbl.t = Hashtbl.create 7 in
      List.iter
        (fun (o : outage) ->
          let key = (min o.u o.v, max o.u o.v) in
          Hashtbl.add tbl key (o.from_round, o.until_round))
        t.outages;
      fun r a b ->
        List.exists
          (fun (lo, hi) -> lo <= r && r <= hi)
          (Hashtbl.find_all tbl (min a b, max a b))
    end
  in
  let event_rounds =
    Array.of_list
      (List.sort_uniq Int.compare
         (Hashtbl.fold
            (fun k _ acc -> k :: acc)
            crash_at
            (Hashtbl.fold (fun k _ acc -> k :: acc) recover_at [])))
  in
  { crash_at; recover_at; link_down; event_rounds }

let pp ppf t =
  Format.fprintf ppf
    "seed=%d drop=%g dup=%g crashes=%d outages=%d" t.seed t.drop_rate
    t.duplicate_rate (List.length t.crashes) (List.length t.outages)
