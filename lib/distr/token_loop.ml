open Congest

(* Nothing is allocated per token or per batch once the buffers have
   grown to their peak. Slot [j] of vertex [v] has global index
   [off.(v) + j]. Inboxes are double-buffered by round parity: a sender
   appends to [inbox.((r + 1) land 1)] while its receivers read
   [inbox.(r land 1)]. Senders run ascending, so an inbox fills in
   sender-ascending order, each batch in the order the router asked
   for: the order in which the simulator delivers the same sends. *)
type t = {
  off : int array;                 (* slot offsets, length n + 1 *)
  dst : int array;                 (* per slot: the receiving neighbour *)
  cap : int;                       (* tokens per slot per round *)
  newest_first : bool;             (* a batch lands newest first *)
  busy : int array;                (* per vertex, from [off.(v)]: the
                                      slots holding tokens, any order *)
  busy_len : int array;
  slot_buf : int array array;      (* per slot: a power-of-two ring *)
  slot_head : int array;
  slot_len : int array;
  inbox : int array array array;   (* by round parity, then vertex *)
  inbox_len : int array array;
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
  mutable flights : int;           (* batches sent *)
  mutable sent : int;              (* tokens sent *)
  mutable max_flight : int;        (* most tokens one batch carried *)
  mutable last_traffic : int;
  mutable stepped : int;           (* vertex steps over the run *)
}

let create ~off ~dst ~cap ~newest_first =
  let n = Array.length off - 1 in
  let slots = off.(n) in
  let words = (n + 31) / 32 in
  {
    off;
    dst;
    cap;
    newest_first;
    busy = Array.make slots 0;
    busy_len = Array.make n 0;
    slot_buf = Array.make slots [||];
    slot_head = Array.make slots 0;
    slot_len = Array.make slots 0;
    inbox = Array.init 2 (fun _ -> Array.make n [||]);
    inbox_len = Array.init 2 (fun _ -> Array.make n 0);
    cur = Array.make words 0;
    cur_lo = max_int;
    cur_hi = -1;
    nxt = Array.make words 0;
    nxt_lo = max_int;
    nxt_hi = -1;
    round = 0;
    flights = 0;
    sent = 0;
    max_flight = 0;
    last_traffic = 0;
    stepped = 0;
  }

let round t = t.round
let flights t = t.flights
let sent t = t.sent
let parked t = Array.fold_left ( + ) 0 t.slot_len

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
let mark t v =
  let i = v lsr 5 in
  t.nxt.(i) <- t.nxt.(i) lor (1 lsl (v land 31));
  if i < t.nxt_lo then t.nxt_lo <- i;
  if i > t.nxt_hi then t.nxt_hi <- i

(* lint: hot *)
let park t v s tok =
  let len = t.slot_len.(s) in
  if len = 0 then begin
    let b = t.busy_len.(v) in
    t.busy.(t.off.(v) + b) <- s;
    t.busy_len.(v) <- b + 1
  end;
  let buf = t.slot_buf.(s) in
  let cap = Array.length buf in
  if len = cap then begin
    (* unroll the ring, oldest first, into one twice as large *)
    (* lint: allow A001 amortized doubling growth *)
    let b = Array.make (if cap = 0 then 4 else 2 * cap) 0 in
    let head = t.slot_head.(s) in
    Array.blit buf head b 0 (cap - head);
    Array.blit buf 0 b (cap - head) head;
    b.(len) <- tok;
    t.slot_buf.(s) <- b;
    t.slot_head.(s) <- 0
  end
  else buf.((t.slot_head.(s) + len) land (cap - 1)) <- tok;
  t.slot_len.(s) <- len + 1

(* send slot [s]'s batch: up to [cap] of its oldest tokens *)
(* lint: hot *)
let send t s =
  let q = t.slot_len.(s) in
  let k = Int.min t.cap q in
  let dst = t.dst.(s) in
  let p = (t.round + 1) land 1 in
  let len = t.inbox_len.(p).(dst) in
  let ib = reserve t.inbox.(p) dst ~live:len ~need:(len + k) in
  let buf = t.slot_buf.(s) in
  let mask = Array.length buf - 1 in
  let head = t.slot_head.(s) in
  (* the batch's [i]-th oldest token lands at [at + dir * i] *)
  let at = if t.newest_first then len + k - 1 else len in
  let dir = if t.newest_first then -1 else 1 in
  for i = 0 to k - 1 do
    ib.(at + (dir * i)) <- buf.((head + i) land mask)
  done;
  t.slot_head.(s) <- (head + k) land mask;
  t.slot_len.(s) <- q - k;
  t.inbox_len.(p).(dst) <- len + k;
  t.flights <- t.flights + 1;
  t.sent <- t.sent + k;
  if k > t.max_flight then t.max_flight <- k;
  t.last_traffic <- t.round;
  mark t dst

(* receive, then transmit from the busy slots only; their order does
   not matter, as each slot feeds a different receiver *)
(* lint: hot *)
let step_vertex t step v =
  let p = t.round land 1 in
  let arrived = t.inbox_len.(p).(v) in
  t.inbox_len.(p).(v) <- 0;
  t.stepped <- t.stepped + 1;
  (* a vertex still holding tokens of its own steps again next round *)
  if step v t.inbox.(p).(v) arrived then mark t v;
  let off = t.off.(v) in
  let kept = ref 0 in
  for i = 0 to t.busy_len.(v) - 1 do
    let s = t.busy.(off + i) in
    send t s;
    if t.slot_len.(s) > 0 then begin
      t.busy.(off + !kept) <- s;
      incr kept
    end
  done;
  t.busy_len.(v) <- !kept;
  (* a vertex still holding parked tokens sends again next round *)
  if !kept > 0 then mark t v

(* step every vertex marked in [cur], ascending, clearing the marks *)
(* lint: hot *)
let step_round t step =
  for i = t.cur_lo to t.cur_hi do
    let x = ref t.cur.(i) in
    if !x <> 0 then begin
      t.cur.(i) <- 0;
      let v = ref (i lsl 5) in
      while !x <> 0 do
        if !x land 1 <> 0 then step_vertex t step !v;
        x := !x lsr 1;
        incr v
      done
    end
  done

let swap t =
  let c = t.cur in
  t.cur <- t.nxt;
  t.cur_lo <- t.nxt_lo;
  t.cur_hi <- t.nxt_hi;
  t.nxt <- c;
  t.nxt_lo <- max_int;
  t.nxt_hi <- -1

let run t ~max_rounds step =
  (* round 1 steps every vertex *)
  for v = 0 to Array.length t.off - 2 do
    mark t v
  done;
  swap t;
  while t.round < max_rounds && t.cur_lo <= t.cur_hi do
    t.round <- t.round + 1;
    step_round t step;
    swap t
  done

let stats t ~max_rounds ~messages ~flight_bits ~token_bits =
  let n = Array.length t.off - 1 in
  (* [Network.run] with no vertex ever halting: a run with vertices
     lasts exactly [max_rounds] rounds (silent rounds are skipped, not
     stopped at) and never completes *)
  let rounds = if n = 0 then 0 else Int.max 0 max_rounds in
  let total_bits = (flight_bits * t.flights) + (token_bits * t.sent) in
  (* an edge carries at most one batch per round *)
  let max_edge_bits =
    if t.flights = 0 then 0 else flight_bits + (token_bits * t.max_flight)
  in
  Obs.Meter.net ~rounds ~messages ~total_bits ~max_edge_bits;
  Obs.Meter.active ~vertices:t.stepped;
  {
    Network.rounds;
    messages;
    dropped = 0;
    duplicated = 0;
    crashed_rounds = 0;
    total_bits;
    max_edge_bits;
    completed = n = 0;
    last_traffic_round = t.last_traffic;
  }
