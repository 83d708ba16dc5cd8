(* The Lemma 2.4 walk as a round function on Congest.Network.run: the
   reference that Distr.Walk_routing.run's flat loop is checked against.
   Same per-vertex streams (seeded [seed; v; 7919]), same draw order,
   same per-edge capacity and the same token encoding; the simulator
   steps the vertices, enforces the CONGEST budget on every send and
   keeps the statistics. [exec] and [faults] pass through to the
   simulator, so the fault layer keeps walk-shaped coverage. Inputs are
   not validated: the tests only hand it inputs the production walk
   accepts. *)

open Sparse_graph
open Congest

type state = {
  rng : Random.State.t;
  active : Int_fifo.t;
  waiting : Int_fifo.t array;
  mutable absorbed_rev : int list;  (* token ids, newest first *)
  mutable expired : int;
  mutable holding : int;            (* tokens in [active] + [waiting] *)
}

let token_words = 3

(* one lazy step for every token active on entry: stay -> back of
   [active], move -> the sampled neighbor's waiting queue *)
let advance_active st row span =
  let deg = Array.length row in
  let walk_len = span - 1 in
  let expired = ref 0 in
  for _ = 1 to Int_fifo.length st.active do
    let tok = Int_fifo.pop st.active in
    if tok mod span >= walk_len then incr expired
    else begin
      let stay = deg = 0 || Random.State.bool st.rng in
      if stay then Int_fifo.push st.active (tok + 1)
      else
        Int_fifo.push st.waiting.(Random.State.int st.rng deg) (tok + 1)
    end
  done;
  !expired

let origin_of (first : int array) id =
  let lo = ref 0 and hi = ref (Array.length first - 2) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if first.(mid) <= id then lo := mid else hi := mid - 1
  done;
  !lo

let run ?exec ?faults (view : Distr.Cluster_view.t) ~leader_of ~tokens_of
    ~walk_len ~seed ~max_rounds =
  let g = view.graph in
  let n = Graph.n g in
  let intra = view.Distr.Cluster_view.intra in
  let budget =
    match Network.congest_bandwidth n with
    | Network.Congest b -> b
    | Network.Local -> max_int
  in
  let token_bits = Bits.words n token_words in
  let capacity = Int.max 1 (budget / token_bits) in
  let first = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    first.(v + 1) <- first.(v) + tokens_of v
  done;
  let total = first.(n) in
  let span = walk_len + 1 in
  let init (ctx : Network.ctx) =
    let deg = Array.length intra.(ctx.id) in
    let st =
      {
        rng = Random.State.make [| seed; ctx.id; 7919 |];
        active = Int_fifo.create ();
        waiting = Array.init deg (fun _ -> Int_fifo.create ());
        absorbed_rev = [];
        expired = 0;
        holding = 0;
      }
    in
    let lo = first.(ctx.id) and hi = first.(ctx.id + 1) in
    if leader_of.(ctx.id) = ctx.id then
      for id = lo to hi - 1 do
        st.absorbed_rev <- id :: st.absorbed_rev
      done
    else
      for id = lo to hi - 1 do
        Int_fifo.push st.active (id * span);
        st.holding <- st.holding + 1
      done;
    st
  in
  let round _r (ctx : Network.ctx) st inbox =
    let v = ctx.id in
    if leader_of.(v) = v then
      List.iter
        (fun (_, tok) -> st.absorbed_rev <- (tok / span) :: st.absorbed_rev)
        inbox
    else
      List.iter
        (fun (_, tok) ->
          Int_fifo.push st.active tok;
          st.holding <- st.holding + 1)
        inbox;
    let expired = advance_active st intra.(v) span in
    st.expired <- st.expired + expired;
    st.holding <- st.holding - expired;
    (* at most [capacity] tokens per neighbor per round; built by
       descending slot so the list comes out ascending, and within a slot
       the last token popped leads *)
    let send = ref [] in
    for j = Array.length intra.(v) - 1 downto 0 do
      let q = st.waiting.(j) in
      let k = Int.min capacity (Int_fifo.length q) in
      for _ = 1 to k do
        send := (intra.(v).(j), Int_fifo.pop q) :: !send
      done;
      st.holding <- st.holding - k
    done;
    Network.step st ~send:!send
      ?wake_after:(if st.holding > 0 then Some 1 else None)
  in
  let states, stats =
    Network.run ?exec ?faults g
      ~bandwidth:(Network.congest_bandwidth n)
      ~msg_bits:(fun _ -> token_bits)
      ~init ~round ~max_rounds
  in
  let token_of id =
    let origin = origin_of first id in
    { Distr.Walk_routing.origin; seq = id - first.(origin) }
  in
  let delivered = ref [] in
  let got = ref 0 in
  let expired = ref 0 in
  let held = ref 0 in
  Array.iteri
    (fun v st ->
      if st.absorbed_rev <> [] then begin
        let toks = List.rev_map token_of st.absorbed_rev in
        got := !got + List.length toks;
        delivered := (v, toks) :: !delivered
      end;
      expired := !expired + st.expired;
      held := !held + st.holding)
    states;
  {
    Distr.Walk_routing.delivered = List.rev !delivered;
    undelivered = total - !got;
    expired = !expired;
    held = !held;
    stats;
  }
