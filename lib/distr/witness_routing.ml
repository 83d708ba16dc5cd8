open Sparse_graph
open Congest

(* Source-routed store-and-forward execution of pre-planned demand paths
   in CONGEST rounds: the deterministic counterpart to {!Walk_routing}
   (lazy random walks). The expander-routing planner (lib/route) turns a
   demand into a concrete vertex path along the witness hierarchy, and a
   Bfs_tree parent chain is another such path; this module only ships the
   tokens, throttled to the per-edge CONGEST budget, so planner and
   shipper deliver exactly the same multiset of demands.

   Tokens are single ints ([did * stride + pos]); a vertex holding a
   token at position [pos] of its plan forwards it to position [pos + 1],
   parking it in the ring of that neighbor's slot while the edge is
   saturated. Each edge sends one *flight* per round: a batch of as many
   parked tokens as the bandwidth budget admits, costing one framing word
   plus two words (demand id, position) per token. The rounds run on
   {!Token_loop}, the kernel {!Walk_routing.run} runs on too, with the
   statistics [Congest.Network.run] would report for the same round
   function (the test suite keeps that function on the simulator as the
   reference). *)

type result = {
  delivered : (int * int list) list;
      (* per destination vertex: demand ids absorbed, arrival order *)
  undelivered : int;  (* total demands minus deliveries (cut off) *)
  held : int;         (* tokens still parked somewhere when the run ended *)
  last_round : int;   (* round of the final delivery (0 = only self-demands) *)
  rounds_of : int array;  (* per demand: arrival round, or -1 *)
  stats : Network.stats;
}

let token_words = 2 (* demand id, path position *)
let flight_hdr_words = 1 (* token count / framing *)

(* The shipper's own state; the slots, inboxes and worklist are the
   kernel's. A vertex's slot [j] is the directed edge to its [j]-th
   neighbor, [nbr.(off.(v) + j)]. Each step accepts the inbox tokens in
   order: absorbed at their plan's end, otherwise parked in the FIFO of
   the next hop's slot, one position further along the plan. A flight
   lands in queue order: the order the simulator delivers it in. *)
type flights = {
  loop : Token_loop.t;
  plans : int array array;
  stride : int;
  off : int array;                 (* slot offsets, length n + 1 *)
  nbr : int array;                 (* per slot: the receiving neighbor *)
  absorbed : int array;            (* demand ids, in absorption order *)
  mutable absorbed_len : int;
  rounds_of : int array;
}

(* the slot of [v]'s edge to [x]: binary search in [v]'s sorted
   neighbor range *)
(* lint: hot *)
let slot_of w v x =
  let lo = ref w.off.(v) and hi = ref (w.off.(v + 1) - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if w.nbr.(mid) < x then lo := mid + 1 else hi := mid
  done;
  if !lo < w.off.(v + 1) && w.nbr.(!lo) = x then !lo
  else invalid_arg "Witness_routing: plan step is not a graph edge"

(* a token that reached its plan position at [v]: absorb it at the
   plan's end, otherwise park it toward the next hop *)
(* lint: hot *)
let accept w v tok =
  let did = tok / w.stride and pos = tok mod w.stride in
  let p = w.plans.(did) in
  if pos = Array.length p - 1 then begin
    w.absorbed.(w.absorbed_len) <- did;
    w.absorbed_len <- w.absorbed_len + 1;
    w.rounds_of.(did) <- Token_loop.round w.loop
  end
  else Token_loop.park w.loop v (slot_of w v p.(pos + 1)) (tok + 1)

(* lint: hot *)
let step_vertex w v ib arrived =
  for i = 0 to arrived - 1 do
    accept w v ib.(i)
  done;
  false

let run g ~(plans : int array array) ~max_rounds =
  Obs.Span.with_ "distr.witness_routing" @@ fun () ->
  let n = Graph.n g in
  let demands = Array.length plans in
  let stride =
    1 + Array.fold_left (fun acc p -> Int.max acc (Array.length p)) 1 plans
  in
  (* demands starting at each vertex, ascending demand id *)
  let starts = Array.make n [] in
  for d = demands - 1 downto 0 do
    let p = plans.(d) in
    if Array.length p = 0 then invalid_arg "Witness_routing: empty plan";
    if p.(0) < 0 || p.(0) >= n then
      invalid_arg
        (Printf.sprintf
           "Witness_routing: demand %d starts at vertex %d, outside [0, %d)" d
           p.(0) n);
    starts.(p.(0)) <- d :: starts.(p.(0))
  done;
  let budget =
    match Network.congest_bandwidth n with
    | Network.Congest b -> b
    | Network.Local -> max_int
  in
  (* one id width for vertices and demand ids alike, computed once: a
     flight of k tokens is (hdr + token_words * k) words of idb bits *)
  let idb = Bits.id_bits (Int.max n demands) in
  let flight_cap =
    Int.max 1 (((budget / idb) - flight_hdr_words) / token_words)
  in
  let flight_bits k = idb * (flight_hdr_words + (token_words * k)) in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Graph.degree g v
  done;
  let nbr = Array.make off.(n) 0 in
  for v = 0 to n - 1 do
    for j = 0 to Graph.degree g v - 1 do
      nbr.(off.(v) + j) <- Graph.neighbor_at g v j
    done
  done;
  let w =
    {
      loop =
        Token_loop.create ~off ~dst:nbr ~cap:flight_cap ~newest_first:false;
      plans;
      stride;
      off;
      nbr;
      absorbed = Array.make demands 0;
      absorbed_len = 0;
      rounds_of = Array.make demands (-1);
    }
  in
  (* round 0: every vertex takes its own demands, ascending; a
     self-demand is absorbed at once *)
  for v = 0 to n - 1 do
    List.iter (fun did -> accept w v (did * stride)) starts.(v)
  done;
  (* an edge carries one flight a round, so the budget breaks only if a
     one-token flight is already too wide, and then every flight does:
     the simulator raises in round 1, at the least vertex holding tokens
     and its least receiver *)
  if flight_bits 1 > budget && max_rounds >= 1 then begin
    let v = ref 0 and dst = ref max_int in
    while !v < n && !dst = max_int do
      List.iter
        (fun d ->
          let p = plans.(d) in
          if Array.length p > 1 then dst := Int.min !dst p.(1))
        starts.(!v);
      if !dst = max_int then incr v
    done;
    if !v < n then
      raise
        (Network.Congestion_violation
           { round = 1; src = !v; dst = !dst; bits = flight_bits 1; budget })
  end;
  Token_loop.run w.loop ~max_rounds (step_vertex w);
  let stats =
    Token_loop.stats w.loop ~max_rounds
      ~messages:(Token_loop.flights w.loop)
      ~flight_bits:(idb * flight_hdr_words) ~token_bits:(idb * token_words)
  in
  (* per destination, in absorption order: the log runs round by round,
     vertex-ascending within a round, inbox order within a vertex *)
  let per = Array.make n [] in
  for i = w.absorbed_len - 1 downto 0 do
    let did = w.absorbed.(i) in
    let p = plans.(did) in
    let v = p.(Array.length p - 1) in
    per.(v) <- did :: per.(v)
  done;
  let delivered = ref [] in
  for v = n - 1 downto 0 do
    if per.(v) <> [] then delivered := (v, per.(v)) :: !delivered
  done;
  {
    delivered = !delivered;
    (* counted against the total, so tokens in flight at [max_rounds]
       are still accounted for *)
    undelivered = demands - w.absorbed_len;
    held = Token_loop.parked w.loop;
    (* the log runs in round order *)
    last_round =
      (if w.absorbed_len = 0 then 0
       else w.rounds_of.(w.absorbed.(w.absorbed_len - 1)));
    rounds_of = w.rounds_of;
    stats;
  }

(* every demand delivered exactly once, at its plan's destination *)
let check ~(plans : int array array) result =
  let demands = Array.length plans in
  let seen = Array.make demands false in
  let ok = ref true in
  List.iter
    (fun (v, ds) ->
      List.iter
        (fun d ->
          if d < 0 || d >= demands || seen.(d) then ok := false
          else begin
            seen.(d) <- true;
            let p = plans.(d) in
            if p.(Array.length p - 1) <> v then ok := false
          end)
        ds)
    result.delivered;
  let got = ref 0 in
  Array.iter (fun b -> if b then incr got) seen;
  !ok && !got + result.undelivered = demands
