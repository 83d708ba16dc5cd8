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

(* The whole walk as flat arrays; nothing is allocated per token or per
   message once the buffers have grown to their peak.

   A vertex's slot [j] is the directed edge to [intra.(v).(j)], with
   global index [off.(v) + j]. A round steps each scheduled vertex [v]
   in ascending id order, as [Network.run] does:
   - receive: a leader absorbs its inbox; elsewhere the inbox tokens
     walk after the tokens that stayed at [v] last round;
   - walk: every token takes one lazy step — a stay is written back in
     place, a move parks the token in the FIFO of its sampled slot;
   - transmit: each slot holding tokens sends its [capacity] oldest
     into the receiver's next-round inbox; a per-vertex list of those
     slots spares the scan of a hub's empty ones.
   Inboxes are double-buffered by round parity: a sender appends to
   [inbox.((r + 1) land 1)] while its receivers read [inbox.(r land 1)].
   Senders run ascending, so an inbox fills in sender-ascending order; a
   sender's tokens to one receiver land newest-first, the order of the
   send list the simulator-hosted walk builds. *)
type walk = {
  intra : int array array;
  leader_of : int array;
  off : int array;                 (* slot offsets, length n + 1 *)
  rng : Random.State.t array;      (* per vertex, seeded [seed; v; 7919] *)
  span : int;
  capacity : int;                  (* tokens per slot per round *)
  active : int array array;        (* stays, oldest first *)
  active_len : int array;
  busy : int array;                (* per vertex, from [off.(v)]: the
                                      slots holding tokens, any order *)
  busy_len : int array;
  slot_buf : int array array;      (* per slot: a power-of-two ring *)
  slot_head : int array;
  slot_len : int array;
  inbox : int array array array;   (* by round parity, then vertex *)
  inbox_len : int array array;
  absorbed : int array array;      (* per leader: token ids, in order *)
  absorbed_len : int array;
  (* vertices to step, 32 per word; [cur] is read this round (and
     cleared as it is read), [nxt] is marked for the next one. The
     word range bounds the scan. *)
  mutable cur : int array;
  mutable cur_lo : int;
  mutable cur_hi : int;
  mutable nxt : int array;
  mutable nxt_lo : int;
  mutable nxt_hi : int;
  mutable round : int;
  mutable expired : int;
  mutable messages : int;
  mutable max_slot_load : int;     (* most tokens one slot sent in a round *)
  mutable last_traffic : int;
  mutable stepped : int;           (* vertex steps over the run *)
}

(* [bufs.(i)], first grown to hold [need] elements if it is shorter;
   its first [live] elements are kept *)
let reserve bufs i ~live ~need =
  let a = bufs.(i) in
  if need <= Array.length a then a
  else begin
    (* lint: allow A001 amortized doubling growth *)
    let b = Array.make (Int.max need (Int.max 8 (2 * Array.length a))) 0 in
    Array.blit a 0 b 0 live;
    bufs.(i) <- b;
    b
  end

(* lint: hot *)
let mark w v =
  let i = v lsr 5 in
  w.nxt.(i) <- w.nxt.(i) lor (1 lsl (v land 31));
  if i < w.nxt_lo then w.nxt_lo <- i;
  if i > w.nxt_hi then w.nxt_hi <- i

(* lint: hot *)
let park w s tok =
  let len = w.slot_len.(s) in
  let buf = w.slot_buf.(s) in
  let cap = Array.length buf in
  if len = cap then begin
    (* unroll the ring, oldest first, into one twice as large *)
    (* lint: allow A001 amortized doubling growth *)
    let b = Array.make (if cap = 0 then 4 else 2 * cap) 0 in
    let head = w.slot_head.(s) in
    Array.blit buf head b 0 (cap - head);
    Array.blit buf 0 b (cap - head) head;
    b.(len) <- tok;
    w.slot_buf.(s) <- b;
    w.slot_head.(s) <- 0
  end
  else buf.((w.slot_head.(s) + len) land (cap - 1)) <- tok;
  w.slot_len.(s) <- len + 1

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
    let s = off + Random.State.int rng deg in
    if w.slot_len.(s) = 0 then begin
      let b = w.busy_len.(v) in
      w.busy.(off + b) <- s;
      w.busy_len.(v) <- b + 1
    end;
    park w s (tok + 1);
    k
  end

(* send up to [capacity] of slot [s]'s oldest tokens to [dst] *)
(* lint: hot *)
let send w s dst =
  let q = w.slot_len.(s) in
  let k = Int.min w.capacity q in
  let p = (w.round + 1) land 1 in
  let len = w.inbox_len.(p).(dst) in
  let ib = reserve w.inbox.(p) dst ~live:len ~need:(len + k) in
  let buf = w.slot_buf.(s) in
  let mask = Array.length buf - 1 in
  let head = w.slot_head.(s) in
  for t = 0 to k - 1 do
    ib.(len + k - 1 - t) <- buf.((head + t) land mask)
  done;
  w.slot_head.(s) <- (head + k) land mask;
  w.slot_len.(s) <- q - k;
  w.inbox_len.(p).(dst) <- len + k;
  w.messages <- w.messages + k;
  if k > w.max_slot_load then w.max_slot_load <- k;
  w.last_traffic <- w.round;
  mark w dst

(* lint: hot *)
let step_vertex w v =
  let p = w.round land 1 in
  let arrived = w.inbox_len.(p).(v) in
  let ib = w.inbox.(p).(v) in
  w.inbox_len.(p).(v) <- 0;
  w.stepped <- w.stepped + 1;
  if w.leader_of.(v) = v then begin
    if arrived > 0 then begin
      let len = w.absorbed_len.(v) in
      let a = reserve w.absorbed v ~live:len ~need:(len + arrived) in
      for i = 0 to arrived - 1 do
        a.(len + i) <- ib.(i) / w.span
      done;
      w.absorbed_len.(v) <- len + arrived
    end
  end
  else begin
    let row = w.intra.(v) in
    let deg = Array.length row in
    let off = w.off.(v) in
    let rng = w.rng.(v) in
    let len = w.active_len.(v) in
    let a = reserve w.active v ~live:len ~need:(len + arrived) in
    (* last round's stays first, oldest first, then the arrivals *)
    let k = ref 0 in
    for i = 0 to len - 1 do
      k := walk_token w v rng a !k deg off a.(i)
    done;
    for i = 0 to arrived - 1 do
      k := walk_token w v rng a !k deg off ib.(i)
    done;
    w.active_len.(v) <- !k;
    (* transmit from the busy slots only; their order does not matter,
       as each slot feeds a different receiver *)
    let kept = ref 0 in
    for i = 0 to w.busy_len.(v) - 1 do
      let s = w.busy.(off + i) in
      send w s row.(s - off);
      if w.slot_len.(s) > 0 then begin
        w.busy.(off + !kept) <- s;
        incr kept
      end
    done;
    w.busy_len.(v) <- !kept;
    (* a vertex holding tokens keeps walking every round *)
    if !k > 0 || !kept > 0 then mark w v
  end

(* step every vertex marked in [cur], ascending, clearing the marks *)
(* lint: hot *)
let step_round w =
  for i = w.cur_lo to w.cur_hi do
    let x = ref w.cur.(i) in
    if !x <> 0 then begin
      w.cur.(i) <- 0;
      let v = ref (i lsl 5) in
      while !x <> 0 do
        if !x land 1 <> 0 then step_vertex w !v;
        x := !x lsr 1;
        incr v
      done
    end
  done

let swap w =
  let t = w.cur in
  w.cur <- w.nxt;
  w.cur_lo <- w.nxt_lo;
  w.cur_hi <- w.nxt_hi;
  w.nxt <- t;
  w.nxt_lo <- max_int;
  w.nxt_hi <- -1

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
  let slots = off.(n) in
  let words = (n + 31) / 32 in
  let w =
    {
      intra;
      leader_of;
      off;
      rng = Array.init n (fun v -> Random.State.make [| seed; v; 7919 |]);
      span;
      capacity;
      active = Array.make n [||];
      active_len = Array.make n 0;
      busy = Array.make slots 0;
      busy_len = Array.make n 0;
      slot_buf = Array.make slots [||];
      slot_head = Array.make slots 0;
      slot_len = Array.make slots 0;
      inbox = Array.init 2 (fun _ -> Array.make n [||]);
      inbox_len = Array.init 2 (fun _ -> Array.make n 0);
      absorbed = Array.make n [||];
      absorbed_len = Array.make n 0;
      cur = Array.make words 0;
      cur_lo = max_int;
      cur_hi = -1;
      nxt = Array.make words 0;
      nxt_lo = max_int;
      nxt_hi = -1;
      round = 0;
      expired = 0;
      messages = 0;
      max_slot_load = 0;
      last_traffic = 0;
      stepped = 0;
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
    end;
    (* round 1 steps every vertex *)
    mark w v
  done;
  swap w;
  while w.round < max_rounds && w.cur_lo <= w.cur_hi do
    w.round <- w.round + 1;
    step_round w;
    swap w
  done;
  (* [Network.run] with no vertex ever halting: a run with vertices
     lasts exactly [max_rounds] rounds (silent rounds are skipped, not
     stopped at) and never completes *)
  let rounds = if n = 0 then 0 else Int.max 0 max_rounds in
  let total_bits = w.messages * token_bits in
  let max_edge_bits = w.max_slot_load * token_bits in
  Obs.Meter.net ~rounds ~messages:w.messages ~total_bits ~max_edge_bits;
  Obs.Meter.active ~vertices:w.stepped;
  let token_of id =
    let origin = origin_of first id in
    { origin; seq = id - first.(origin) }
  in
  let delivered = ref [] in
  let got = ref 0 in
  let held = ref 0 in
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
    held := !held + w.active_len.(v);
    for s = off.(v) to off.(v + 1) - 1 do
      held := !held + w.slot_len.(s)
    done
  done;
  {
    delivered = !delivered;
    (* counted against the originated total, so tokens in flight at
       [max_rounds] are still accounted for *)
    undelivered = total - !got;
    expired = w.expired;
    held = !held;
    stats =
      {
        Network.rounds;
        messages = w.messages;
        dropped = 0;
        duplicated = 0;
        crashed_rounds = 0;
        total_bits;
        max_edge_bits;
        completed = n = 0;
        last_traffic_round = w.last_traffic;
      };
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
