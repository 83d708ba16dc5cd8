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

(* Tokens travel as immediate ints: [id * span + steps], where [id] is
   the token's index in (origin, seq) order — origin [v]'s tokens are ids
   [first.(v) .. first.(v + 1) - 1] — [steps] counts the lazy steps taken
   so far, and [span = walk_len + 1]. A step is [tok + 1]; the walk
   budget is spent once [tok mod span = walk_len]. *)

(* Per-vertex state. [active] holds tokens that walk this round, oldest
   first; receiving is one push per incoming token, O(|incoming|) — the
   old list-append merge re-walked the whole queue every round, O(q^2)
   total on a hot-spot vertex. [waiting.(j)] parks tokens that sampled a
   move to neighbor slot j (index into the cached intra row) until edge
   capacity lets them transmit; the array replaces the per-round
   [Hashtbl.create 4] send counter and is allocated once at init. *)
type state = {
  rng : Random.State.t;
  active : Int_fifo.t;
  waiting : Int_fifo.t array;
  mutable absorbed_rev : int list;  (* token ids, newest first *)
  mutable expired : int;            (* walk budget exhausted here *)
  mutable holding : int;            (* tokens in [active] + [waiting] *)
}

(* declared message size: origin, seq and step counter, the three ids a
   token carries in the paper's accounting *)
let token_words = 3

(* one walk step for every token currently active: pop, expire or sample
   (stay -> back of [active], move -> the sampled neighbor's waiting
   queue). Processes exactly the tokens active on entry, so re-queued
   stays are not double-stepped. Returns the number expired. *)
(* lint: hot *)
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
      else Int_fifo.push st.waiting.(Random.State.int st.rng deg) (tok + 1)
    end
  done;
  !expired

(* the origin of token [id]: the last vertex [v] with [first.(v) <= id]
   (vertices without tokens share their successor's offset) *)
let origin_of (first : int array) id =
  let lo = ref 0 and hi = ref (Array.length first - 2) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if first.(mid) <= id then lo := mid else hi := mid - 1
  done;
  !lo

let run ?exec ?faults (view : Cluster_view.t) ~leader_of ~tokens_of ~walk_len ~seed
    ~max_rounds =
  Obs.Span.with_ "distr.walk_routing" @@ fun () ->
  let g = view.graph in
  let n = Graph.n g in
  let intra = view.Cluster_view.intra in
  if walk_len < 0 then
    invalid_arg
      (Printf.sprintf "Walk_routing.run: walk_len %d is negative" walk_len);
  let budget =
    match Network.congest_bandwidth n with
    | Network.Congest b -> b
    | Network.Local -> max_int
  in
  let token_bits = Bits.words n token_words in
  let capacity = Int.max 1 (budget / token_bits) in
  (* prefix sums of [tokens_of]: the id range of each origin *)
  let first = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    let k = tokens_of v in
    if k < 0 then
      invalid_arg
        (Printf.sprintf "Walk_routing.run: tokens_of %d is %d, negative" v k);
    if k > max_int - first.(v) then
      invalid_arg
        (Printf.sprintf
           "Walk_routing.run: token total overflows max_int at vertex %d \
            (tokens_of %d = %d)"
           v v k);
    first.(v + 1) <- first.(v) + k
  done;
  let total = first.(n) in
  if total > 0 && walk_len >= max_int / total then
    invalid_arg
      (Printf.sprintf
         "Walk_routing.run: %d tokens x (walk_len %d + 1) overflows max_int"
         total walk_len);
  let span = walk_len + 1 in
  let init (ctx : Network.ctx) =
    let rng = Random.State.make [| seed; ctx.id; 7919 |] in
    let deg = Array.length intra.(ctx.id) in
    let st =
      {
        rng;
        active = Int_fifo.create ();
        waiting = Array.init deg (fun _ -> Int_fifo.create ());
        absorbed_rev = [];
        expired = 0;
        holding = 0;
      }
    in
    let lo = first.(ctx.id) and hi = first.(ctx.id + 1) in
    if leader_of.(ctx.id) = ctx.id then
      (* the leader's own tokens are already delivered; prepended in
         ascending seq so the final reversal lists them in seq order *)
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
    (* receive tokens in inbox (sender-ascending) order; leader absorbs *)
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
    (* advance each active token by one sampled lazy step *)
    let expired = advance_active st intra.(v) span in
    st.expired <- st.expired + expired;
    st.holding <- st.holding - expired;
    (* transmit waiting tokens, at most [capacity] per neighbor per round;
       the send list itself is the simulator's API boundary and the only
       per-round allocation left. Built by descending slot so the list
       comes out ascending; within a slot the last token popped leads. *)
    let send = ref [] in
    for j = Array.length intra.(v) - 1 downto 0 do
      let q = st.waiting.(j) in
      let k = Int.min capacity (Int_fifo.length q) in
      for _ = 1 to k do
        send := (intra.(v).(j), Int_fifo.pop q) :: !send
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
  let token_of id =
    let origin = origin_of first id in
    { origin; seq = id - first.(origin) }
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
