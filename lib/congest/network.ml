open Sparse_graph

type bandwidth = Congest of int | Local

let congest_bandwidth ?(c = 8) n = Congest (c * Bits.id_bits n)

exception Congestion_violation of {
  round : int;
  src : int;
  dst : int;
  bits : int;
  budget : int;
}

type ctx = {
  id : int;
  n_hint : int;
  neighbors : int array;
}

type ('state, 'msg) step = {
  state : 'state;
  send : (int * 'msg) list;
  halt : bool;
  wake_after : int option;
}

let step ?wake_after ?(send = []) ?(halt = false) state =
  { state; send; halt; wake_after }

type exec = Sharded of { shards : int; pool : Parallel.Pool.t }

type stats = {
  rounds : int;
  messages : int;
  dropped : int;
  duplicated : int;
  crashed_rounds : int;
  total_bits : int;
  max_edge_bits : int;
  completed : bool;
  last_traffic_round : int;
}

(* Shared fault bookkeeping lives in Faults.tables (crash / recovery
   schedules keyed by round, the link-outage predicate, the sorted event
   rounds); the loops below only unpack it. *)

(* ------------------------------------------------------------------ *)
(* Reference loop                                                      *)
(* ------------------------------------------------------------------ *)

(* The pre-scheduler implementation, kept byte-for-byte in behavior as the
   equivalence baseline for [run] and as the slow side of the congest-bench
   comparison. It ignores [wake_after] and steps every non-halted,
   non-crashed vertex every round. *)
let run_reference ?(faults = Faults.none) g ~bandwidth ~msg_bits ~init ~round
    ~max_rounds =
  let n = Graph.n g in
  let ctxs =
    Array.init n (fun v ->
        { id = v; n_hint = n; neighbors = Array.of_list (Graph.neighbors g v) })
  in
  let states = Array.map init ctxs in
  let halted = Array.make n false in
  let inboxes : (int * 'msg) list array = Array.make n [] in
  let messages = ref 0 in
  let dropped = ref 0 in
  let duplicated = ref 0 in
  let crashed_rounds = ref 0 in
  let total_bits = ref 0 in
  let max_edge_bits = ref 0 in
  let last_traffic = ref 0 in
  let rounds = ref 0 in
  let live = ref n in
  (* A crashed vertex leaves [live] (a permanently crashed vertex must not
     block completion) and re-enters on recovery. Fault randomness is
     drawn from the spec's own seeded state in the simulator's
     deterministic traversal order, so runs are byte-identical across
     reruns and worker-pool sizes. *)
  let faulty = Faults.is_active faults in
  let crashed = Array.make n false in
  let frng = Faults.rng faults in
  let { Faults.crash_at; recover_at; link_down; _ } = Faults.tables faults ~n in
  (* scratch for the per-directed-edge bandwidth accounting, reused across
     vertices and rounds; [touched] lists the destinations to reset *)
  let edge_bits = Array.make n 0 in
  let touched = ref [] in
  let is_neighbor v w =
    (* binary search in the vertex's sorted neighbor row; avoids the
       per-message incidence lookup in the graph *)
    let row = ctxs.(v).neighbors in
    let lo = ref 0 and hi = ref (Array.length row - 1) in
    let found = ref false in
    while (not !found) && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let x = row.(mid) in
      if x = w then found := true
      else if x < w then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  in
  while !live > 0 && !rounds < max_rounds do
    incr rounds;
    let r = !rounds in
    (* crash / recovery events take effect at the start of the round: a
       vertex crashing in round r does not execute round r; a vertex
       recovering in round r executes round r with its pre-crash state
       and an empty inbox *)
    if faulty then begin
      List.iter
        (fun v ->
          if crashed.(v) && not halted.(v) then begin
            crashed.(v) <- false;
            incr live
          end)
        (Hashtbl.find_all recover_at r);
      List.iter
        (fun v ->
          if (not crashed.(v)) && not halted.(v) then begin
            crashed.(v) <- true;
            inboxes.(v) <- [];
            decr live
          end)
        (Hashtbl.find_all crash_at r)
    end;
    (* collect this round's traffic; per directed edge bit accounting *)
    let outgoing = Array.make n [] in
    for v = 0 to n - 1 do
      if halted.(v) then inboxes.(v) <- []
      else if crashed.(v) then begin
        inboxes.(v) <- [];
        incr crashed_rounds
      end
      else begin
        let inbox =
          List.stable_sort
            (* lint: allow A002 int sender ids: the compiler specializes it *)
            (fun (a, _) (b, _) -> compare a b)
            (List.rev inboxes.(v))
        in
        inboxes.(v) <- [];
        let st = round r ctxs.(v) states.(v) inbox in
        states.(v) <- st.state;
        (* a halting vertex's final sends still go out this round *)
        outgoing.(v) <- st.send;
        if st.halt then begin
          halted.(v) <- true;
          decr live
        end
      end
    done;
    for v = 0 to n - 1 do
      (* enforce bandwidth per directed edge (v -> w) *)
      List.iter
        (fun (w, msg) ->
          if not (is_neighbor v w) then
            invalid_arg
              (Printf.sprintf "Network.run: vertex %d sent to non-neighbor %d"
                 v w);
          let bits = msg_bits msg in
          if edge_bits.(w) = 0 then touched := w :: !touched;
          let now = edge_bits.(w) + bits in
          edge_bits.(w) <- now;
          (match bandwidth with
          | Local -> ()
          | Congest budget ->
              if now > budget then
                raise
                  (Congestion_violation
                     { round = r; src = v; dst = w; bits = now; budget }));
          total_bits := !total_bits + bits;
          if now > !max_edge_bits then max_edge_bits := now;
          incr messages;
          last_traffic := r;
          (* fate of the message: the sender has spent the bandwidth
             either way; every non-delivery is counted in [dropped], so
             exactly [messages - dropped] messages reach an inbox *)
          if faulty && link_down r v w then incr dropped
          else if crashed.(w) then incr dropped
          else if halted.(w) then incr dropped
          else if
            faults.drop_rate > 0.
            && Random.State.float frng 1. < faults.drop_rate
          then incr dropped
          else begin
            inboxes.(w) <- (v, msg) :: inboxes.(w);
            if
              faults.duplicate_rate > 0.
              && Random.State.float frng 1. < faults.duplicate_rate
            then begin
              inboxes.(w) <- (v, msg) :: inboxes.(w);
              incr duplicated
            end
          end)
        outgoing.(v);
      List.iter (fun w -> edge_bits.(w) <- 0) !touched;
      touched := []
    done
  done;
  Obs.Meter.net ~rounds:!rounds ~messages:!messages ~total_bits:!total_bits
    ~max_edge_bits:!max_edge_bits;
  if faulty then
    Obs.Meter.faults ~dropped:!dropped ~duplicated:!duplicated
      ~crashed_rounds:!crashed_rounds;
  ( states,
    {
      rounds = !rounds;
      messages = !messages;
      dropped = !dropped;
      duplicated = !duplicated;
      crashed_rounds = !crashed_rounds;
      total_bits = !total_bits;
      max_edge_bits = !max_edge_bits;
      completed = !live = 0;
      last_traffic_round = !last_traffic;
    } )

(* ------------------------------------------------------------------ *)
(* Active-vertex scheduler                                             *)
(* ------------------------------------------------------------------ *)

(* sends are normally listed in ascending neighbor order, so a moving
   cursor over the sorted row validates them in O(1) amortized; an
   out-of-order send falls back to binary search *)
(* lint: hot *)
let check_neighbor row cursor v w =
  let len = Array.length row in
  let c = !cursor in
  if c < len && row.(c) = w then cursor := c + 1
  else begin
    let lo = ref 0 and hi = ref (len - 1) in
    let found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let x = row.(mid) in
      if x = w then found := mid
      else if x < w then lo := mid + 1
      else hi := mid - 1
    done;
    if !found < 0 then
      invalid_arg
        (Printf.sprintf "Network.run: vertex %d sent to non-neighbor %d" v w);
    cursor := !found + 1
  end

(* ------------------------------------------------------------------ *)
(* Production loop                                                     *)
(* ------------------------------------------------------------------ *)

(* Per-shard state. Each shard owns the contiguous vertex range
   [sh_lo, sh_hi) (CSR-aligned: vertex v lives in shard v / chunk, so
   walking the shards in index order walks the vertices in id order).
   The shard steps its own worklist inside the Team barrier; everything
   cross-shard — delivery, fault draws, bandwidth accounting — happens in
   the coordinator's sequential exchange between barriers. *)
type 'msg shard = {
  sh_lo : int;
  sh_hi : int;
  (* worklists over the shard's own vertices (dedup via the global sched
     stamps; capacity = shard size) *)
  mutable sh_cur : int array;
  mutable sh_cur_len : int;
  mutable sh_nxt : int array;
  mutable sh_nxt_len : int;
  (* scratch bitset over the shard's range, 32 vertices a word, all zero
     between rounds: [sort_worklist] orders unsorted worklists through it *)
  sh_bits : int array;
  (* inbound arena: (src, dst, msg) columns appended sender-ascending by
     the coordinator's exchange, consumed at the shard's next step *)
  mutable sh_ib_src : int array;
  mutable sh_ib_dst : int array;
  mutable sh_ib_msg : 'msg array;
  mutable sh_ib_len : int;
  (* outbound messages, filled ascending-by-sender during the step phase,
     drained by the exchange *)
  mutable sh_ob_src : int array;
  mutable sh_ob_dst : int array;
  mutable sh_ob_msg : 'msg array;
  mutable sh_ob_bits : int array;
  mutable sh_ob_len : int;
  (* shard-local wake machinery (the pending-wake rounds themselves live
     in the global wake_at array so the coordinator can cancel on crash) *)
  sh_wake_buckets : (int, int list ref) Hashtbl.t;
  mutable sh_heap : int array;
  mutable sh_heap_len : int;
  (* per-round outputs, read by the coordinator after the barrier *)
  mutable sh_stepped : int;
  mutable sh_halts : int;
  (* arena footprint accounting (machine words), for the inbox meter *)
  mutable sh_words : int;
}

(* lint: hot *)
let sh_heap_push sh x =
  if sh.sh_heap_len = Array.length sh.sh_heap then begin
    (* lint: allow A001 amortized doubling growth *)
    let h = Array.make (2 * sh.sh_heap_len) 0 in
    Array.blit sh.sh_heap 0 h 0 sh.sh_heap_len;
    sh.sh_heap <- h
  end;
  let a = sh.sh_heap in
  let i = ref sh.sh_heap_len in
  sh.sh_heap_len <- sh.sh_heap_len + 1;
  a.(!i) <- x;
  while !i > 0 && a.((!i - 1) / 2) > a.(!i) do
    let p = (!i - 1) / 2 in
    let t = a.(p) in
    a.(p) <- a.(!i);
    a.(!i) <- t;
    i := p
  done

(* lint: hot *)
let sh_heap_min sh = if sh.sh_heap_len = 0 then max_int else sh.sh_heap.(0)

(* lint: hot *)
let sh_heap_pop sh =
  let a = sh.sh_heap in
  sh.sh_heap_len <- sh.sh_heap_len - 1;
  a.(0) <- a.(sh.sh_heap_len);
  let i = ref 0 in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let s = ref !i in
    if l < sh.sh_heap_len && a.(l) < a.(!s) then s := l;
    if r < sh.sh_heap_len && a.(r) < a.(!s) then s := r;
    if !s = !i then moving := false
    else begin
      let t = a.(!s) in
      a.(!s) <- a.(!i);
      a.(!i) <- t;
      i := !s
    end
  done

(* bit index of a 32-bit power of two, by de Bruijn multiplication *)
let debruijn32 =
  [|
    0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23;
    21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9;
  |]

(* Sort the shard's worklist ascending. An already-sorted worklist costs
   one linear pass. Otherwise the worklist is marked in the shard's bitset
   and read back word by word, lowest bit first, up to the word of its
   largest vertex: O(len + words), no comparison. The worklist holds no
   duplicate (the sched stamps dedup it), so this is the sorted order. *)
(* lint: hot *)
let sort_worklist sh =
  let len = sh.sh_cur_len and cur = sh.sh_cur in
  let bits = sh.sh_bits in
  let sorted = ref 1 in
  while !sorted < len && cur.(!sorted - 1) < cur.(!sorted) do
    incr sorted
  done;
  if !sorted < len then begin
    let lo = sh.sh_lo in
    for i = 0 to len - 1 do
      let o = cur.(i) - lo in
      let w = o lsr 5 in
      bits.(w) <- bits.(w) lor (1 lsl (o land 31))
    done;
    let k = ref 0 and w = ref 0 in
    while !k < len do
      let x = ref bits.(!w) in
      if !x <> 0 then begin
        bits.(!w) <- 0;
        let base = lo + (!w lsl 5) in
        while !x <> 0 do
          let low = !x land - !x in
          cur.(!k) <-
            base + debruijn32.(((low * 0x077CB531) land 0xFFFFFFFF) lsr 27);
          incr k;
          x := !x lxor low
        done
      end;
      incr w
    done
  end

(* The simulator loop. The determinism contract it preserves, relied on
   by the fault layer's RNG: per round, vertices execute in ascending id
   order and each vertex's sends are processed in list order, so the k-th
   [Random.State] draw of a run lands on the same message as in
   [run_reference]. Each shard steps its own sorted worklist, and the
   exchange walks the shard outboxes in shard order — which is global
   sender-ascending order because shards own contiguous ascending
   ranges. The sequence of round calls is a subsequence of the
   reference's that omits only steps the wake-up contract declares
   no-ops (see network.mli), which send nothing and therefore draw
   nothing. So delivery order, bandwidth accounting,
   congestion raise order and the fault RNG draw order are all identical
   to run_reference at every shard count. Parallelism never touches the
   draws: the single Faults.rng stream is consumed only in the sequential
   exchange.

   The user's init / round / msg_bits functions execute on worker
   domains; they must be domain-safe pure functions of their arguments
   (the wake-up contract already demands this for round). *)
let run ?(faults = Faults.none)
    ?(exec = Sharded { shards = 1; pool = Parallel.Pool.sequential })
    g ~bandwidth ~msg_bits ~init ~round ~max_rounds =
  let (Sharded { shards; pool }) = exec in
  let n = Graph.n g in
  let chunk = Int.max 1 ((n + Int.max 1 shards - 1) / Int.max 1 shards) in
  let nshards = (n + chunk - 1) / chunk in
  let ctxs =
    Array.init n (fun v ->
        let d = Graph.degree g v in
        { id = v; n_hint = n; neighbors = Array.init d (Graph.neighbor_at g v) })
  in
  let states = Array.map init ctxs in
  let halted = Array.make n false in
  let crashed = Array.make n false in
  let inlists : (int * 'msg) list array = Array.make n [] in
  (* [wake_at.(v)] is v's pending wake round (0 = none); stale bucket
     entries (superseded or cancelled wakes) are filtered against it when
     the bucket is consumed. [sched.(v)] is the latest round v is queued
     for (worklist dedup stamp). *)
  let wake_at = Array.make n 0 in
  let sched = Array.make n (-1) in
  let shard_tbl =
    Array.init nshards (fun s ->
        let lo = s * chunk in
        let hi = Int.min n (lo + chunk) in
        let size = Int.max 1 (hi - lo) in
        {
          sh_lo = lo;
          sh_hi = hi;
          sh_cur = Array.make size 0;
          sh_cur_len = 0;
          sh_nxt = Array.make size 0;
          sh_nxt_len = 0;
          sh_bits = Array.make ((size + 31) / 32) 0;
          sh_ib_src = [||];
          sh_ib_dst = [||];
          sh_ib_msg = [||];
          sh_ib_len = 0;
          sh_ob_src = [||];
          sh_ob_dst = [||];
          sh_ob_msg = [||];
          sh_ob_bits = [||];
          sh_ob_len = 0;
          sh_wake_buckets = Hashtbl.create 32;
          sh_heap = Array.make 16 0;
          sh_heap_len = 0;
          sh_stepped = 0;
          sh_halts = 0;
          sh_words = 0;
        })
  in
  let messages = ref 0 in
  let dropped = ref 0 in
  let duplicated = ref 0 in
  let crashed_rounds = ref 0 in
  let total_bits = ref 0 in
  let max_edge_bits = ref 0 in
  let last_traffic = ref 0 in
  let rounds = ref 0 in
  let live = ref n in
  let active_total = ref 0 in
  let inbox_peak = ref 0 in
  let faulty = Faults.is_active faults in
  let crashed_live = ref 0 in
  let frng = Faults.rng faults in
  let { Faults.crash_at; recover_at; link_down; event_rounds = fault_rounds } =
    Faults.tables faults ~n
  in
  let fr_idx = ref 0 in
  let next_fault_round r =
    while
      !fr_idx < Array.length fault_rounds && fault_rounds.(!fr_idx) <= r
    do
      incr fr_idx
    done;
    if !fr_idx < Array.length fault_rounds then fault_rounds.(!fr_idx)
    else max_int
  in
  let edge_bits = Array.make n 0 in
  let touched = Array.make n 0 in
  let touched_len = ref 0 in
  (* lint: hot *)
  let push_cur sh r v =
    if sched.(v) <> r then begin
      sched.(v) <- r;
      sh.sh_cur.(sh.sh_cur_len) <- v;
      sh.sh_cur_len <- sh.sh_cur_len + 1
    end
  in
  (* lint: hot *)
  let push_nxt sh r1 v =
    if sched.(v) <> r1 then begin
      sched.(v) <- r1;
      sh.sh_nxt.(sh.sh_nxt_len) <- v;
      sh.sh_nxt_len <- sh.sh_nxt_len + 1
    end
  in
  let set_wake sh v t =
    wake_at.(v) <- t;
    match Hashtbl.find_opt sh.sh_wake_buckets t with
    | Some entries -> entries := v :: !entries
    | None ->
        Hashtbl.add sh.sh_wake_buckets t (ref [ v ]);
        sh_heap_push sh t
  in
  (* amortized doubling of an arena column holding [k] live entries; a
     'msg column is filled with the message that triggered the growth *)
  (* lint: hot *)
  let grow a k cap' fill =
    (* lint: allow A001 amortized doubling growth *)
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 k;
    a'
  in
  (* coordinator side: append one delivery to the destination shard's arena *)
  (* lint: hot *)
  let push_ib sh src dst msg =
    let k = sh.sh_ib_len in
    if k = Array.length sh.sh_ib_src then begin
      let cap' = if k = 0 then 64 else 2 * k in
      sh.sh_ib_src <- grow sh.sh_ib_src k cap' 0;
      sh.sh_ib_dst <- grow sh.sh_ib_dst k cap' 0;
      sh.sh_ib_msg <- grow sh.sh_ib_msg k cap' msg;
      sh.sh_words <- sh.sh_words + (3 * (cap' - k))
    end;
    sh.sh_ib_src.(k) <- src;
    sh.sh_ib_dst.(k) <- dst;
    sh.sh_ib_msg.(k) <- msg;
    sh.sh_ib_len <- k + 1
  in
  (* shard side: append one outgoing message *)
  (* lint: hot *)
  let push_out sh v w msg =
    let k = sh.sh_ob_len in
    if k = Array.length sh.sh_ob_src then begin
      let cap' = if k = 0 then 64 else 2 * k in
      sh.sh_ob_src <- grow sh.sh_ob_src k cap' 0;
      sh.sh_ob_dst <- grow sh.sh_ob_dst k cap' 0;
      sh.sh_ob_msg <- grow sh.sh_ob_msg k cap' msg;
      sh.sh_ob_bits <- grow sh.sh_ob_bits k cap' 0
    end;
    sh.sh_ob_src.(k) <- v;
    sh.sh_ob_dst.(k) <- w;
    sh.sh_ob_msg.(k) <- msg;
    sh.sh_ob_bits.(k) <- msg_bits msg;
    sh.sh_ob_len <- k + 1
  in
  (* one shard's slice of a round, executed inside the Team barrier *)
  let step_shard r sh =
    (match Hashtbl.find_opt sh.sh_wake_buckets r with
    | Some entries ->
        List.iter
          (fun v ->
            if wake_at.(v) = r then begin
              wake_at.(v) <- 0;
              if (not halted.(v)) && not crashed.(v) then push_cur sh r v
            end)
          !entries;
        Hashtbl.remove sh.sh_wake_buckets r
    | None -> ());
    if sh_heap_min sh = r then sh_heap_pop sh;
    sort_worklist sh;
    (* rebuild per-vertex inboxes from the arena: walking backward while
       consing restores arrival (sender-ascending) order; a vertex that
       crashed this round loses its pending inbox, exactly like the
       reference loop clearing it at the crash event *)
    let consumed = sh.sh_ib_len in
    for i = consumed - 1 downto 0 do
      let dst = sh.sh_ib_dst.(i) in
      if not crashed.(dst) then
        inlists.(dst) <- (sh.sh_ib_src.(i), sh.sh_ib_msg.(i)) :: inlists.(dst)
    done;
    sh.sh_ib_len <- 0;
    (* high-watermark shrink: an arena that grew for one burst must not
       keep its peak capacity, and the stale 'msg pointers in its message
       column, for the rest of the run *)
    let cap = Array.length sh.sh_ib_src in
    if cap > 64 && 4 * consumed < cap then begin
      sh.sh_words <- sh.sh_words - (3 * cap);
      sh.sh_ib_src <- [||];
      sh.sh_ib_dst <- [||];
      sh.sh_ib_msg <- [||]
    end;
    sh.sh_stepped <- 0;
    sh.sh_halts <- 0;
    sh.sh_ob_len <- 0;
    let step_vertex v =
      let ib = inlists.(v) in
      inlists.(v) <- [];
      let st = round r ctxs.(v) states.(v) ib in
      states.(v) <- st.state;
      sh.sh_stepped <- sh.sh_stepped + 1;
      (match st.send with
      | [] -> ()
      | sends ->
          let row = ctxs.(v).neighbors in
          let cursor = ref 0 in
          List.iter
            (fun (w, msg) ->
              check_neighbor row cursor v w;
              push_out sh v w msg)
            sends);
      if st.halt then begin
        halted.(v) <- true;
        sh.sh_halts <- sh.sh_halts + 1;
        if wake_at.(v) > 0 then wake_at.(v) <- 0
      end
      else
        match st.wake_after with
        | Some 1 ->
            (* next round: straight onto the worklist, the way a delivered
               message queues its receiver; a crash before then skips the
               step, exactly as it would cancel a bucketed wake *)
            if wake_at.(v) > 0 then wake_at.(v) <- 0;
            push_nxt sh (r + 1) v
        | Some d ->
            if d < 1 then
              invalid_arg
                (Printf.sprintf
                   "Network.run: vertex %d requested wake_after %d (must be \
                    >= 1)"
                   v d);
            if d <= max_rounds - r then set_wake sh v (r + d)
            else if wake_at.(v) > 0 then wake_at.(v) <- 0
        | None -> if wake_at.(v) > 0 then wake_at.(v) <- 0
    in
    for i = 0 to sh.sh_cur_len - 1 do
      let v = sh.sh_cur.(i) in
      if (not halted.(v)) && not crashed.(v) then step_vertex v
    done;
    sh.sh_cur_len <- 0
  in
  (* the sequential cross-shard exchange: shard order x in-shard step order
     is global sender-ascending order, each sender's sends in list order —
     the draw order the fault RNG pins *)
  (* lint: hot *)
  let exchange r =
    let prev_sender = ref (-1) in
    for s = 0 to nshards - 1 do
      let sh = shard_tbl.(s) in
      for k = 0 to sh.sh_ob_len - 1 do
        let v = sh.sh_ob_src.(k) in
        if v <> !prev_sender then begin
          (* per-directed-edge budgets reset at each sender boundary *)
          for t = 0 to !touched_len - 1 do
            edge_bits.(touched.(t)) <- 0
          done;
          touched_len := 0;
          prev_sender := v
        end;
        let w = sh.sh_ob_dst.(k) in
        let bits = sh.sh_ob_bits.(k) in
        if edge_bits.(w) = 0 then begin
          touched.(!touched_len) <- w;
          incr touched_len
        end;
        let now = edge_bits.(w) + bits in
        edge_bits.(w) <- now;
        (match bandwidth with
        | Local -> ()
        | Congest budget ->
            if now > budget then
              raise
                (Congestion_violation
                   { round = r; src = v; dst = w; bits = now; budget }));
        total_bits := !total_bits + bits;
        if now > !max_edge_bits then max_edge_bits := now;
        incr messages;
        last_traffic := r;
        (* fate of the message, same chain and same single RNG stream as
           the reference loop *)
        if faulty && link_down r v w then incr dropped
        else if crashed.(w) then incr dropped
        else if halted.(w) then incr dropped
        else if
          faults.Faults.drop_rate > 0.
          && Random.State.float frng 1. < faults.Faults.drop_rate
        then incr dropped
        else begin
          let dsh = shard_tbl.(w / chunk) in
          let msg = sh.sh_ob_msg.(k) in
          push_ib dsh v w msg;
          push_nxt dsh (r + 1) w;
          if
            faults.Faults.duplicate_rate > 0.
            && Random.State.float frng 1. < faults.Faults.duplicate_rate
          then begin
            (* the duplicate is the same 'msg value, pushed twice *)
            push_ib dsh v w msg;
            incr duplicated
          end
        end
      done;
      sh.sh_ob_len <- 0
    done;
    for t = 0 to !touched_len - 1 do
      edge_bits.(touched.(t)) <- 0
    done;
    touched_len := 0
  in
  (* round 1 schedules everyone *)
  Array.iter
    (fun sh ->
      for v = sh.sh_lo to sh.sh_hi - 1 do
        push_cur sh 1 v
      done)
    shard_tbl;
  let team = Parallel.Pool.Team.create pool ~tasks:nshards in
  Fun.protect ~finally:(fun () -> Parallel.Pool.Team.shutdown team)
  @@ fun () ->
  while !live > 0 && !rounds < max_rounds do
    incr rounds;
    let r = !rounds in
    (* fault events at round start, coordinator-side: recoveries first,
       then crashes, as in the reference loop. Crashing cancels the
       pending wake; recovery is the only re-arm. A recovering vertex
       executes its recovery round with an empty inbox. *)
    if faulty then begin
      List.iter
        (fun v ->
          if crashed.(v) && not halted.(v) then begin
            crashed.(v) <- false;
            incr live;
            decr crashed_live;
            push_cur shard_tbl.(v / chunk) r v
          end)
        (Hashtbl.find_all recover_at r);
      List.iter
        (fun v ->
          if (not crashed.(v)) && not halted.(v) then begin
            crashed.(v) <- true;
            if wake_at.(v) > 0 then wake_at.(v) <- 0;
            decr live;
            incr crashed_live
          end)
        (Hashtbl.find_all crash_at r)
    end;
    crashed_rounds := !crashed_rounds + !crashed_live;
    (* parallel step phase: one barrier per round. The task closure
       captures mutable per-vertex arrays (states, halted, inlists,
       wake_at, sched) without atomics; that is safe by construction —
       each shard steps only vertices in its own contiguous [lo, hi)
       range, and all cross-shard writes happen in [exchange], which the
       coordinator runs sequentially between barriers. *)
    (* lint: allow P002 shard-owned vertex ranges; cross-shard writes are sequential in exchange *)
    Parallel.Pool.Team.run team (fun s -> step_shard r shard_tbl.(s));
    for s = 0 to nshards - 1 do
      let sh = shard_tbl.(s) in
      active_total := !active_total + sh.sh_stepped;
      live := !live - sh.sh_halts
    done;
    exchange r;
    (* arenas grow only during the exchange, so the footprint peaks here;
       taking the all-shard total per round keeps the peak exact when
       shards burst in different rounds *)
    let words = ref 0 in
    for s = 0 to nshards - 1 do
      words := !words + shard_tbl.(s).sh_words
    done;
    if !words > !inbox_peak then inbox_peak := !words;
    for s = 0 to nshards - 1 do
      let sh = shard_tbl.(s) in
      let t = sh.sh_cur in
      sh.sh_cur <- sh.sh_nxt;
      sh.sh_nxt <- t;
      sh.sh_cur_len <- sh.sh_nxt_len;
      sh.sh_nxt_len <- 0
    done;
    (* fast-forward over silent rounds: nobody is scheduled, so jump to
       the earliest pending wake over all shards, the next fault event,
       or the horizon. The reference loop spends those rounds stepping
       vertices whose wake-up contract makes them no-ops, so skipping
       them changes nothing observable; crashed vertices still accrue
       crashed_rounds for each round skipped. *)
    if !live > 0 then begin
      let busy = ref false in
      for s = 0 to nshards - 1 do
        if shard_tbl.(s).sh_cur_len > 0 then busy := true
      done;
      if not !busy then begin
        let wake_min = ref max_int in
        for s = 0 to nshards - 1 do
          let m = sh_heap_min shard_tbl.(s) in
          if m < !wake_min then wake_min := m
        done;
        let cand = Int.min !wake_min (next_fault_round r) in
        let target =
          if cand = max_int || cand > max_rounds then max_rounds + 1
          else cand
        in
        let skipped = target - 1 - r in
        if skipped > 0 then begin
          crashed_rounds := !crashed_rounds + (!crashed_live * skipped);
          rounds := target - 1
        end
      end
    end
  done;
  Obs.Meter.net ~rounds:!rounds ~messages:!messages ~total_bits:!total_bits
    ~max_edge_bits:!max_edge_bits;
  if faulty then
    Obs.Meter.faults ~dropped:!dropped ~duplicated:!duplicated
      ~crashed_rounds:!crashed_rounds;
  Obs.Meter.active ~vertices:!active_total;
  let final_words = Array.fold_left (fun a sh -> a + sh.sh_words) 0 shard_tbl in
  Obs.Meter.inbox ~peak_words:!inbox_peak ~final_words;
  ( states,
    {
      rounds = !rounds;
      messages = !messages;
      dropped = !dropped;
      duplicated = !duplicated;
      crashed_rounds = !crashed_rounds;
      total_bits = !total_bits;
      max_edge_bits = !max_edge_bits;
      completed = !live = 0;
      last_traffic_round = !last_traffic;
    } )
