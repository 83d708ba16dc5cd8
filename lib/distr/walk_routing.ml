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

(* declared message size: origin, seq and step counter, the three ids a
   token carries in the paper's accounting *)
let token_words = 3

(* The walk's own state; the slots, inboxes and worklist are the
   kernel's. A vertex's slot [j] is the directed edge to
   [intra.(v).(j)]. Each step receives first: a leader absorbs its
   inbox; elsewhere the inbox tokens walk after the tokens that stayed
   at [v] last round. Every token takes one lazy step: a stay is
   written back in place, a move parks the token in the FIFO of its
   sampled slot. A sender's tokens to one receiver land newest-first,
   the order of the send list the simulator-hosted walk builds. *)
type walk = {
  loop : Token_loop.t;
  leader_of : int array;
  off : int array;                 (* slot offsets, length n + 1 *)
  rng : Random.State.t array;      (* per vertex, seeded [seed; v; 7919] *)
  span : int;
  active : int array array;        (* stays, oldest first *)
  active_len : int array;
  absorbed : int array array;      (* per leader: token ids, in order *)
  absorbed_len : int array;
  mutable expired : int;
}

(* one lazy step of [tok] at [v] (row degree [deg], slots from [off]);
   a stay is written to [a.(k)]. Returns the next free index of [a]. *)
(* lint: hot *)
let walk_token w v rng a k deg off tok =
  let walk_len = w.span - 1 in
  if tok mod w.span >= walk_len then begin
    w.expired <- w.expired + 1;
    k
  end
  else if deg = 0 || Random.State.bool rng then begin
    a.(k) <- tok + 1;
    k + 1
  end
  else begin
    Token_loop.park w.loop v (off + Random.State.int rng deg) (tok + 1);
    k
  end

(* lint: hot *)
let step_vertex w v ib arrived =
  if w.leader_of.(v) = v then begin
    if arrived > 0 then begin
      let len = w.absorbed_len.(v) in
      let a = Token_loop.reserve w.absorbed v ~live:len ~need:(len + arrived) in
      for i = 0 to arrived - 1 do
        a.(len + i) <- ib.(i) / w.span
      done;
      w.absorbed_len.(v) <- len + arrived
    end;
    false
  end
  else begin
    let off = w.off.(v) in
    let deg = w.off.(v + 1) - off in
    let rng = w.rng.(v) in
    let len = w.active_len.(v) in
    (* the stays fit where they are; only arrivals may need room *)
    let a =
      if arrived = 0 then w.active.(v)
      else Token_loop.reserve w.active v ~live:len ~need:(len + arrived)
    in
    (* last round's stays first, oldest first, then the arrivals *)
    let k = ref 0 in
    for i = 0 to len - 1 do
      k := walk_token w v rng a !k deg off a.(i)
    done;
    for i = 0 to arrived - 1 do
      k := walk_token w v rng a !k deg off ib.(i)
    done;
    w.active_len.(v) <- !k;
    (* a vertex holding tokens keeps walking every round *)
    !k > 0
  end

(* the origin of token [id]: the last vertex [v] with [first.(v) <= id]
   (vertices without tokens share their successor's offset) *)
let origin_of (first : int array) id =
  let lo = ref 0 and hi = ref (Array.length first - 2) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if first.(mid) <= id then lo := mid else hi := mid - 1
  done;
  !lo

let run (view : Cluster_view.t) ~leader_of ~tokens_of ~walk_len ~seed
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
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Array.length intra.(v)
  done;
  let dst = Array.concat (Array.to_list intra) in
  let w =
    {
      loop = Token_loop.create ~off ~dst ~cap:capacity ~newest_first:true;
      leader_of;
      off;
      rng = Array.init n (fun v -> Random.State.make [| seed; v; 7919 |]);
      span;
      active = Array.make n [||];
      active_len = Array.make n 0;
      absorbed = Array.make n [||];
      absorbed_len = Array.make n 0;
      expired = 0;
    }
  in
  (* a leader's own tokens are delivered at once, in seq order; every
     other vertex starts its tokens walking *)
  for v = 0 to n - 1 do
    let lo = first.(v) and k = first.(v + 1) - first.(v) in
    if leader_of.(v) = v then begin
      w.absorbed.(v) <- Array.init k (fun i -> lo + i);
      w.absorbed_len.(v) <- k
    end
    else begin
      w.active.(v) <- Array.init k (fun i -> (lo + i) * span);
      w.active_len.(v) <- k
    end
  done;
  Token_loop.run w.loop ~max_rounds (step_vertex w);
  let messages = Token_loop.sent w.loop in
  let stats =
    Token_loop.stats w.loop ~max_rounds ~messages ~flight_bits:0 ~token_bits
  in
  let token_of id =
    let origin = origin_of first id in
    { origin; seq = id - first.(origin) }
  in
  let delivered = ref [] in
  let got = ref 0 in
  let held = ref (Token_loop.parked w.loop) in
  for v = n - 1 downto 0 do
    let k = w.absorbed_len.(v) in
    if k > 0 then begin
      let toks = ref [] in
      for i = k - 1 downto 0 do
        toks := token_of w.absorbed.(v).(i) :: !toks
      done;
      got := !got + k;
      delivered := (v, !toks) :: !delivered
    end;
    held := !held + w.active_len.(v)
  done;
  {
    delivered = !delivered;
    (* counted against the originated total, so tokens in flight at
       [max_rounds] are still accounted for *)
    undelivered = total - !got;
    expired = w.expired;
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

(* lint: allow U001 test oracle: every token delivered once to its leader *)
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
