open Sparse_graph
open Congest

type token = {
  origin : int;
  seq : int;
}

type result = {
  delivered : (int * token list) list;
  undelivered : int;
  expired : int;
  held : int;
  stats : Network.stats;
}

(* a token in flight, held by some vertex; steps is mutated in place so
   the hot advance loop allocates nothing *)
type flight = {
  tok : token;
  mutable steps : int;  (* lazy steps taken so far *)
}

(* Per-vertex state. [active] holds tokens that walk this round, oldest
   first; receiving is Queue.add per incoming token, O(|incoming|) — the
   old list-append merge re-walked the whole queue every round, O(q^2)
   total on a hot-spot vertex. [waiting.(j)] parks tokens that sampled a
   move to neighbor slot j (index into the cached intra row) until edge
   capacity lets them transmit; the array replaces the per-round
   [Hashtbl.create 4] send counter and is allocated once at init. *)
type state = {
  rng : Random.State.t;
  active : flight Queue.t;
  waiting : flight Queue.t array;
  mutable absorbed_rev : token list;  (* newest first; reversed on extract *)
  mutable expired : int;              (* walk budget exhausted here *)
  mutable holding : int;              (* tokens in [active] + [waiting] *)
}

let token_words = 3 (* origin, seq, step counter *)

(* one walk step for every token currently active: pop, expire or sample
   (stay -> back of [active], move -> the sampled neighbor's waiting
   queue). Processes exactly [Queue.length active] tokens, so re-queued
   stays are not double-stepped. Returns the number expired. *)
(* lint: hot *)
let advance_active st row walk_len =
  let deg = Array.length row in
  let expired = ref 0 in
  let remaining = ref (Queue.length st.active) in
  while !remaining > 0 do
    decr remaining;
    let fl = Queue.pop st.active in
    if fl.steps >= walk_len then incr expired
    else begin
      fl.steps <- fl.steps + 1;
      let stay = deg = 0 || Random.State.bool st.rng in
      if stay then Queue.add fl st.active
      else Queue.add fl st.waiting.(Random.State.int st.rng deg)
    end
  done;
  !expired

let run ?exec ?faults (view : Cluster_view.t) ~leader_of ~tokens_of ~walk_len ~seed
    ~max_rounds =
  Obs.Span.with_ "distr.walk_routing" @@ fun () ->
  let g = view.graph in
  let n = Graph.n g in
  let intra = view.Cluster_view.intra in
  let budget =
    match Network.congest_bandwidth n with
    | Network.Congest b -> b
    | Network.Local -> max_int
  in
  let token_bits = Bits.words n token_words in
  let capacity = max 1 (budget / token_bits) in
  let total = ref 0 in
  for v = 0 to n - 1 do
    total := !total + tokens_of v
  done;
  let total = !total in
  let init (ctx : Network.ctx) =
    let rng = Random.State.make [| seed; ctx.id; 7919 |] in
    let deg = Array.length intra.(ctx.id) in
    let st =
      {
        rng;
        active = Queue.create ();
        waiting = Array.init deg (fun _ -> Queue.create ());
        absorbed_rev = [];
        expired = 0;
        holding = 0;
      }
    in
    let k = tokens_of ctx.id in
    if leader_of.(ctx.id) = ctx.id then
      (* the leader's own tokens are already delivered; prepended in
         ascending seq so the final reversal lists them in seq order *)
      for seq = 0 to k - 1 do
        st.absorbed_rev <- { origin = ctx.id; seq } :: st.absorbed_rev
      done
    else
      for seq = 0 to k - 1 do
        Queue.add { tok = { origin = ctx.id; seq }; steps = 0 } st.active;
        st.holding <- st.holding + 1
      done;
    st
  in
  let round _r (ctx : Network.ctx) st inbox =
    let v = ctx.id in
    (* receive tokens in inbox (sender-ascending) order; leader absorbs *)
    if leader_of.(v) = v then
      List.iter
        (fun (_, fl) -> st.absorbed_rev <- fl.tok :: st.absorbed_rev)
        inbox
    else
      List.iter
        (fun (_, fl) ->
          Queue.add fl st.active;
          st.holding <- st.holding + 1)
        inbox;
    (* advance each active token by one sampled lazy step *)
    let expired = advance_active st intra.(v) walk_len in
    st.expired <- st.expired + expired;
    st.holding <- st.holding - expired;
    (* transmit waiting tokens, at most [capacity] per neighbor per round;
       the send list itself is the simulator's API boundary and the only
       per-round allocation left. Built by descending slot so the list
       comes out ascending. *)
    let send = ref [] in
    for j = Array.length intra.(v) - 1 downto 0 do
      let q = st.waiting.(j) in
      let k = min capacity (Queue.length q) in
      for _ = 1 to k do
        send := (intra.(v).(j), Queue.pop q) :: !send
      done;
      st.holding <- st.holding - k
    done;
    (* event-driven: a vertex holding tokens keeps walking (and drawing
       from its RNG) every round; an empty vertex sleeps until a token
       arrives *)
    Network.step st ~send:!send
      ?wake_after:(if st.holding > 0 then Some 1 else None)
  in
  let states, stats =
    Network.run ?exec ?faults g
      ~bandwidth:(Network.congest_bandwidth n)
      ~msg_bits:(fun _ -> token_bits)
      ~init ~round ~max_rounds
  in
  let delivered = ref [] in
  let got = ref 0 in
  let expired = ref 0 in
  let held = ref 0 in
  Array.iteri
    (fun v st ->
      if st.absorbed_rev <> [] then begin
        let toks = List.rev st.absorbed_rev in
        got := !got + List.length toks;
        delivered := (v, toks) :: !delivered
      end;
      expired := !expired + st.expired;
      held := !held + st.holding)
    states;
  {
    delivered = List.rev !delivered;
    (* counted against the originated total, so tokens lost to faults or
       in flight at the halting round are still accounted for *)
    undelivered = total - !got;
    expired = !expired;
    held = !held;
    stats;
  }

let total_tokens (view : Cluster_view.t) ~tokens_of =
  let total = ref 0 in
  for v = 0 to Graph.n view.graph - 1 do
    total := !total + tokens_of v
  done;
  !total

let delivery_rate view ~tokens_of result =
  let total = total_tokens view ~tokens_of in
  if total = 0 then 1.
  else begin
    let got =
      List.fold_left (fun acc (_, ts) -> acc + List.length ts) 0
        result.delivered
    in
    float_of_int got /. float_of_int total
  end

let check (view : Cluster_view.t) ~leader_of ~tokens_of result =
  let seen = Hashtbl.create 64 in
  let ok = ref true in
  List.iter
    (fun (leader, toks) ->
      List.iter
        (fun t ->
          if Hashtbl.mem seen t then ok := false;
          Hashtbl.add seen t ();
          if leader_of.(t.origin) <> leader then ok := false;
          if t.seq < 0 || t.seq >= tokens_of t.origin then ok := false)
        toks)
    result.delivered;
  let got = Hashtbl.length seen in
  !ok && got + result.undelivered = total_tokens view ~tokens_of
