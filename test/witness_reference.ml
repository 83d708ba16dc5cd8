(* The planned-path shipper as a round function on Congest.Network.run:
   the reference that Distr.Witness_routing.run's flat loop is checked
   against. Same token encoding ([did * stride + pos]), same flight size
   and cost, same per-slot FIFO order; the simulator steps the vertices,
   orders each inbox by sender, enforces the CONGEST budget on every
   flight and keeps the statistics. [exec] and [faults] pass through to
   the simulator, so the shard-parity and fault layers keep
   shipper-shaped coverage. *)

open Sparse_graph
open Congest

type state = {
  outq : Int_fifo.t array;  (* per neighbor slot: parked tokens *)
  mutable absorbed_rev : (int * int) list;
      (* (demand id, arrival round), newest first *)
  mutable holding : int;
}

let token_words = 2 (* demand id, path position *)
let flight_hdr_words = 1 (* token count / framing *)

(* index of [w] in the sorted neighbor row [row], by binary search *)
let slot_of (row : int array) w =
  let lo = ref 0 and hi = ref (Array.length row - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if row.(mid) < w then lo := mid + 1 else hi := mid
  done;
  if !hi >= 0 && !lo < Array.length row && row.(!lo) = w then !lo
  else invalid_arg "Witness_routing: plan step is not a graph edge"

let run ?exec ?faults g ~(plans : int array array) ~max_rounds =
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
  let idb = Bits.id_bits (Int.max n demands) in
  let flight_cap =
    Int.max 1 (((budget / idb) - flight_hdr_words) / token_words)
  in
  let flight_bits fl =
    idb * (flight_hdr_words + (token_words * Array.length fl))
  in
  (* accept a token that reached plan position [pos] at the vertex whose
     neighbor row is [row]: absorb it at the path's end, otherwise park it
     toward the next hop *)
  let accept st row tok r =
    let did = tok / stride and pos = tok mod stride in
    let p = plans.(did) in
    if pos = Array.length p - 1 then begin
      st.absorbed_rev <- (did, r) :: st.absorbed_rev;
      st.holding <- st.holding - 1
    end
    else Int_fifo.push st.outq.(slot_of row p.(pos + 1)) tok
  in
  let init (ctx : Network.ctx) =
    let st =
      {
        outq =
          Array.init (Array.length ctx.neighbors) (fun _ -> Int_fifo.create ());
        absorbed_rev = [];
        holding = 0;
      }
    in
    List.iter
      (fun did ->
        st.holding <- st.holding + 1;
        accept st ctx.neighbors (did * stride) 0)
      starts.(ctx.id);
    st
  in
  let round r (ctx : Network.ctx) st inbox =
    let row = ctx.neighbors in
    List.iter
      (fun (_, flight) ->
        Array.iter
          (fun tok ->
            st.holding <- st.holding + 1;
            accept st row tok r)
          flight)
      inbox;
    (* drain each neighbor slot into one flight of up to [flight_cap]
       tokens; ascending slot order (built descending so the send list
       comes out ascending) *)
    let send = ref [] in
    for j = Array.length row - 1 downto 0 do
      let q = st.outq.(j) in
      let k = Int.min flight_cap (Int_fifo.length q) in
      if k > 0 then begin
        let fl = Array.make k 0 in
        for idx = 0 to k - 1 do
          fl.(idx) <- Int_fifo.pop q + 1
        done;
        send := (row.(j), fl) :: !send;
        st.holding <- st.holding - k
      end
    done;
    Network.step st ~send:!send
      ?wake_after:(if st.holding > 0 then Some 1 else None)
  in
  let states, stats =
    Network.run ?exec ?faults g
      ~bandwidth:(Network.congest_bandwidth n)
      ~msg_bits:flight_bits ~init ~round ~max_rounds
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
    Distr.Witness_routing.delivered = List.rev !delivered;
    undelivered = demands - !got;
    held = !held;
    last_round = !last_round;
    rounds_of;
    stats;
  }
