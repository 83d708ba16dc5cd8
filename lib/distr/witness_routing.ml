open Sparse_graph
open Congest

(* Source-routed store-and-forward execution of pre-planned demand paths
   on the CONGEST simulator: the [route_via_witness] counterpart to
   {!Walk_routing} (lazy random walks) and {!Tree_routing} (BFS-tree
   convergecast). The expander-routing planner (lib/route) turns a demand
   into a concrete vertex path along the witness hierarchy; this module
   only ships the tokens, throttled to the per-edge CONGEST budget, so
   planner and simulator deliver exactly the same multiset of demands.

   Tokens are single ints ([did * stride + pos]); a vertex holding a
   token at position [pos] of its plan forwards it to position [pos + 1],
   parking it in a per-neighbor-slot queue (same reused-scratch shape as
   the fixed walk router) while the edge is saturated. Each edge sends
   one *flight* per round: an int-array batching as many parked tokens
   as the bandwidth budget admits, costing one framing word plus two
   words (demand id, position) per token — cheaper per token than the
   old one-token-per-message wave, so batches drain in fewer rounds.
   Single-token flights still bit-pack into the simulator's arena
   payload word via the codec; wider flights ride the boxed spill.
   Deterministic: no RNG, inbox order is the simulator's
   sender-ascending contract, tokens within a flight stay in queue
   order. *)

type result = {
  delivered : (int * int list) list;
      (* per destination vertex: demand ids absorbed, arrival order *)
  undelivered : int;  (* total demands minus deliveries (lost or cut off) *)
  held : int;         (* tokens still parked somewhere when the run ended *)
  last_round : int;   (* round of the final delivery (0 = only self-demands) *)
  rounds_of : int array;  (* per demand: arrival round, or -1 *)
  stats : Network.stats;
}

type state = {
  outq : int Queue.t array;  (* per neighbor slot: parked tokens *)
  mutable absorbed_rev : (int * int) list;
      (* (demand id, arrival round), newest first; shard-private *)
  mutable holding : int;
}

let token_words = 2 (* demand id, path position *)
let flight_hdr_words = 1 (* token count / framing *)

(* flights: ordered token batches, one message per edge per round. A
   one-token flight packs immediate (tokens are non-negative); anything
   wider escapes to the boxed spill. *)
let flight_codec : int array Network.codec =
  {
    pack = (fun fl -> if Array.length fl = 1 then fl.(0) else -1);
    unpack = (fun x -> [| x |]);
  }

(* index of [w] in the sorted CSR row [row], by binary search *)
(* lint: hot *)
let slot_of row w =
  let lo = ref 0 and hi = ref (Array.length row - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if row.(mid) < w then lo := mid + 1 else hi := mid
  done;
  if !hi >= 0 && !lo < Array.length row && row.(!lo) = w then !lo
  else invalid_arg "Witness_routing: plan step is not a graph edge"

let run ?exec ?faults g ~(plans : int array array) ~max_rounds =
  Obs.Span.with_ "distr.witness_routing" @@ fun () ->
  let n = Graph.n g in
  let demands = Array.length plans in
  let stride =
    1 + Array.fold_left (fun acc p -> max acc (Array.length p)) 1 plans
  in
  let adj = Array.init n (fun v -> Array.of_list (Graph.neighbors g v)) in
  (* demands starting at each vertex, ascending demand id *)
  let starts = Array.make n [] in
  for d = demands - 1 downto 0 do
    let p = plans.(d) in
    if Array.length p = 0 then invalid_arg "Witness_routing: empty plan";
    starts.(p.(0)) <- d :: starts.(p.(0))
  done;
  let budget =
    match Network.congest_bandwidth n with
    | Network.Congest b -> b
    | Network.Local -> max_int
  in
  let idb = Bits.id_bits (max n demands) in
  (* tokens per flight: (hdr + token_words * cap) * idb <= budget *)
  let flight_cap =
    max 1 (((budget / idb) - flight_hdr_words) / token_words)
  in
  let flight_bits fl =
    Bits.words (max n demands)
      (flight_hdr_words + (token_words * Array.length fl))
  in
  (* accept a token that reached plan position [pos] at this vertex:
     absorb it at the path's end, otherwise park it toward the next hop *)
  let accept st v tok r =
    let did = tok / stride and pos = tok mod stride in
    let p = plans.(did) in
    if pos = Array.length p - 1 then begin
      st.absorbed_rev <- (did, r) :: st.absorbed_rev;
      st.holding <- st.holding - 1
    end
    else Queue.add tok st.outq.(slot_of adj.(v) p.(pos + 1))
  in
  let init (ctx : Network.ctx) =
    let st =
      {
        outq = Array.init (Array.length adj.(ctx.id)) (fun _ -> Queue.create ());
        absorbed_rev = [];
        holding = 0;
      }
    in
    List.iter
      (fun did ->
        st.holding <- st.holding + 1;
        accept st ctx.id (did * stride) 0)
      starts.(ctx.id);
    st
  in
  let round r (ctx : Network.ctx) st inbox =
    let v = ctx.id in
    List.iter
      (fun (_, flight) ->
        Array.iter
          (fun tok ->
            st.holding <- st.holding + 1;
            accept st v tok r)
          flight)
      inbox;
    (* drain each neighbor slot into one flight of up to [flight_cap]
       tokens; ascending slot order (built descending so the send list
       comes out ascending) *)
    let send = ref [] in
    for j = Array.length adj.(v) - 1 downto 0 do
      let q = st.outq.(j) in
      let k = min flight_cap (Queue.length q) in
      if k > 0 then begin
        let fl = Array.make k 0 in
        for idx = 0 to k - 1 do
          fl.(idx) <- Queue.pop q + 1
        done;
        send := (adj.(v).(j), fl) :: !send;
        st.holding <- st.holding - k
      end
    done;
    Network.step st ~send:!send
      ?wake_after:(if st.holding > 0 then Some 1 else None)
  in
  let states, stats =
    Network.run ?exec ?faults g
      ~bandwidth:(Network.congest_bandwidth n)
      ~msg_bits:flight_bits
      ~codec:flight_codec ~init ~round ~max_rounds
  in
  let rounds_of = Array.make demands (-1) in
  let delivered = ref [] in
  let got = ref 0 in
  let held = ref 0 in
  let last_round = ref 0 in
  Array.iteri
    (fun v st ->
      if st.absorbed_rev <> [] then begin
        let ds =
          List.rev_map
            (fun (did, r) ->
              if rounds_of.(did) < 0 then rounds_of.(did) <- r;
              if r > !last_round then last_round := r;
              did)
            st.absorbed_rev
        in
        got := !got + List.length ds;
        delivered := (v, ds) :: !delivered
      end;
      held := !held + st.holding)
    states;
  {
    delivered = List.rev !delivered;
    undelivered = demands - !got;
    held = !held;
    last_round = !last_round;
    rounds_of;
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
