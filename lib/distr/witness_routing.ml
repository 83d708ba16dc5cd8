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
   plus two words (demand id, position) per token. The rounds run as
   their own loop over flat int arrays, like {!Walk_routing.run}'s, with
   the statistics [Congest.Network.run] would report for the same round
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

(* The whole run as flat arrays; nothing is allocated per token or per
   flight once the buffers have grown to their peak.

   A vertex's slot [j] is the directed edge to its [j]-th neighbor, with
   global index [off.(v) + j]; [nbr.(s)] is that neighbor. A round steps
   each scheduled vertex [v] in ascending id order, as [Network.run]
   does:
   - receive: the inbox tokens are accepted in order — absorbed at their
     plan's end, otherwise parked in the FIFO of the next hop's slot;
   - transmit: each slot holding tokens sends its [flight_cap] oldest,
     one position further along their plans, as one flight into the
     receiver's next-round inbox; a per-vertex list of those slots
     spares the scan of a hub's empty ones.
   Inboxes are double-buffered by round parity: a sender appends to
   [inbox.((r + 1) land 1)] while its receivers read [inbox.(r land 1)].
   Senders run ascending, so an inbox fills in sender-ascending order,
   each flight in queue order: the order the simulator delivers the
   same flights in. *)
type flights = {
  plans : int array array;
  stride : int;
  off : int array;                 (* slot offsets, length n + 1 *)
  nbr : int array;                 (* per slot: the receiving neighbor *)
  flight_cap : int;                (* tokens per slot per round *)
  busy : int array;                (* per vertex, from [off.(v)]: the
                                      slots holding tokens, any order *)
  busy_len : int array;
  slot_buf : int array array;      (* per slot: a power-of-two ring *)
  slot_head : int array;
  slot_len : int array;
  inbox : int array array array;   (* by round parity, then vertex *)
  inbox_len : int array array;
  absorbed : int array;            (* demand ids, in absorption order *)
  mutable absorbed_len : int;
  rounds_of : int array;
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
  mutable messages : int;          (* flights *)
  mutable tokens_sent : int;
  mutable max_flight : int;        (* most tokens one flight carried *)
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

(* a token that reached its plan position at [v]: absorb it at the
   plan's end, otherwise park it toward the next hop *)
(* lint: hot *)
let accept w v tok =
  let did = tok / w.stride and pos = tok mod w.stride in
  let p = w.plans.(did) in
  if pos = Array.length p - 1 then begin
    w.absorbed.(w.absorbed_len) <- did;
    w.absorbed_len <- w.absorbed_len + 1;
    w.rounds_of.(did) <- w.round
  end
  else begin
    let s = slot_of w v p.(pos + 1) in
    if w.slot_len.(s) = 0 then begin
      let off = w.off.(v) in
      let b = w.busy_len.(v) in
      w.busy.(off + b) <- s;
      w.busy_len.(v) <- b + 1
    end;
    park w s tok
  end

(* send slot [s]'s flight: up to [flight_cap] of its oldest tokens, each
   one plan position further *)
(* lint: hot *)
let send w s =
  let q = w.slot_len.(s) in
  let k = Int.min w.flight_cap q in
  let dst = w.nbr.(s) in
  let p = (w.round + 1) land 1 in
  let len = w.inbox_len.(p).(dst) in
  let ib = reserve w.inbox.(p) dst ~live:len ~need:(len + k) in
  let buf = w.slot_buf.(s) in
  let mask = Array.length buf - 1 in
  let head = w.slot_head.(s) in
  for t = 0 to k - 1 do
    ib.(len + t) <- buf.((head + t) land mask) + 1
  done;
  w.slot_head.(s) <- (head + k) land mask;
  w.slot_len.(s) <- q - k;
  w.inbox_len.(p).(dst) <- len + k;
  w.messages <- w.messages + 1;
  w.tokens_sent <- w.tokens_sent + k;
  if k > w.max_flight then w.max_flight <- k;
  w.last_traffic <- w.round;
  mark w dst

(* lint: hot *)
let step_vertex w v =
  let p = w.round land 1 in
  let arrived = w.inbox_len.(p).(v) in
  w.stepped <- w.stepped + 1;
  if arrived > 0 then begin
    let ib = w.inbox.(p).(v) in
    w.inbox_len.(p).(v) <- 0;
    for i = 0 to arrived - 1 do
      accept w v ib.(i)
    done
  end;
  (* transmit from the busy slots only; their order does not matter,
     as each slot feeds a different receiver *)
  let off = w.off.(v) in
  let kept = ref 0 in
  for i = 0 to w.busy_len.(v) - 1 do
    let s = w.busy.(off + i) in
    send w s;
    if w.slot_len.(s) > 0 then begin
      w.busy.(off + !kept) <- s;
      incr kept
    end
  done;
  w.busy_len.(v) <- !kept;
  (* a vertex still holding tokens sends again next round *)
  if !kept > 0 then mark w v

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
  let slots = off.(n) in
  let nbr = Array.make slots 0 in
  for v = 0 to n - 1 do
    for j = 0 to Graph.degree g v - 1 do
      nbr.(off.(v) + j) <- Graph.neighbor_at g v j
    done
  done;
  let words = (n + 31) / 32 in
  let w =
    {
      plans;
      stride;
      off;
      nbr;
      flight_cap;
      busy = Array.make slots 0;
      busy_len = Array.make n 0;
      slot_buf = Array.make slots [||];
      slot_head = Array.make slots 0;
      slot_len = Array.make slots 0;
      inbox = Array.init 2 (fun _ -> Array.make n [||]);
      inbox_len = Array.init 2 (fun _ -> Array.make n 0);
      absorbed = Array.make demands 0;
      absorbed_len = 0;
      rounds_of = Array.make demands (-1);
      cur = Array.make words 0;
      cur_lo = max_int;
      cur_hi = -1;
      nxt = Array.make words 0;
      nxt_lo = max_int;
      nxt_hi = -1;
      round = 0;
      messages = 0;
      tokens_sent = 0;
      max_flight = 0;
      last_traffic = 0;
      stepped = 0;
    }
  in
  (* round 0: every vertex takes its own demands, ascending; a
     self-demand is absorbed at once. Round 1 steps every vertex. *)
  for v = 0 to n - 1 do
    List.iter (fun did -> accept w v (did * stride)) starts.(v);
    mark w v
  done;
  (* an edge carries one flight a round, so the budget breaks only if a
     one-token flight is already too wide, and then every flight does:
     the simulator raises in round 1, at the least vertex holding tokens
     and its least receiver *)
  if flight_bits 1 > budget && max_rounds >= 1 then begin
    let v = ref 0 in
    while !v < n && w.busy_len.(!v) = 0 do
      incr v
    done;
    if !v < n then begin
      let dst = ref max_int in
      for i = 0 to w.busy_len.(!v) - 1 do
        dst := Int.min !dst nbr.(w.busy.(off.(!v) + i))
      done;
      raise
        (Network.Congestion_violation
           { round = 1; src = !v; dst = !dst; bits = flight_bits 1; budget })
    end
  end;
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
  let total_bits =
    idb * ((flight_hdr_words * w.messages) + (token_words * w.tokens_sent))
  in
  (* an edge carries at most one flight per round *)
  let max_edge_bits = if w.messages = 0 then 0 else flight_bits w.max_flight in
  Obs.Meter.net ~rounds ~messages:w.messages ~total_bits ~max_edge_bits;
  Obs.Meter.active ~vertices:w.stepped;
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
    held = Array.fold_left ( + ) 0 w.slot_len;
    (* the log runs in round order *)
    last_round =
      (if w.absorbed_len = 0 then 0
       else w.rounds_of.(w.absorbed.(w.absorbed_len - 1)));
    rounds_of = w.rounds_of;
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
