open Sparse_graph

(* Weighted push-relabel with bounded-height early termination, in the
   multi-source / multi-sink supply form used by the cut-matching game:
   every vertex may carry integer supply (excess to route) and integer
   sink capacity (units it can absorb). Heights are capped at [limit];
   a vertex lifted to the cap retires with its remaining excess, and the
   level structure of the retired run yields a cut certificate
   ({!level_cut}). With [limit >= n + 1] the routed value is exactly the
   maximum flow: unsaturated sinks never activate, so they stay at height
   0 and any vertex with excess and a residual path to one keeps height
   below [n]. *)

type outcome = {
  routed : int;          (* units absorbed at sinks (incl. self-absorption) *)
  supply_total : int;
  height : int array;
  excess : int array;    (* unrouted excess left at each vertex *)
  absorbed : int array;  (* units absorbed at each sink *)
  pushes : int;
  relabels : int;
  gap_jumps : int;
  global_relabels : int;
}

let fully_routed o = o.routed = o.supply_total

type state = {
  net : Net.t;
  limit : int;
  height : int array;
  excess : int array;
  sink_left : int array;
  absorbed : int array;
  current : int array;   (* current-arc pointer per vertex *)
  queue : int array;     (* FIFO ring buffer of active vertices *)
  mutable qhead : int;
  mutable qtail : int;
  in_queue : bool array;
  hcount : int array;    (* vertices per height in [0, limit) *)
  mutable routed : int;
  mutable pushes : int;
  mutable relabels : int;
  mutable gap_jumps : int;
  mutable global_relabels : int;
  mutable work : int;    (* arc scans since the last global relabel *)
}

(* the ring position after [i], wrapping without a division *)
(* lint: hot *)
let ring_next st i = if i + 1 = Array.length st.queue then 0 else i + 1

(* lint: hot *)
let enqueue st v =
  if (not st.in_queue.(v)) && st.excess.(v) > 0 && st.height.(v) < st.limit
  then begin
    st.in_queue.(v) <- true;
    st.queue.(st.qtail) <- v;
    st.qtail <- ring_next st st.qtail
  end

(* lint: hot *)
let dequeue st =
  let v = st.queue.(st.qhead) in
  st.qhead <- ring_next st st.qhead;
  st.in_queue.(v) <- false;
  v

(* absorb as much of v's excess as its remaining sink capacity allows *)
(* lint: hot *)
let absorb st v =
  if st.sink_left.(v) > 0 && st.excess.(v) > 0 then begin
    let d = Int.min st.sink_left.(v) st.excess.(v) in
    st.sink_left.(v) <- st.sink_left.(v) - d;
    st.absorbed.(v) <- st.absorbed.(v) + d;
    st.excess.(v) <- st.excess.(v) - d;
    st.routed <- st.routed + d
  end

(* the gap heuristic: height level [h] just emptied, so no residual path
   from any vertex above [h] can reach a sink below it — retire them all.
   The O(n) scan runs only when a level actually empties. *)
(* lint: hot *)
let gap st h =
  for v = 0 to st.net.Net.n - 1 do
    if st.height.(v) > h && st.height.(v) < st.limit then begin
      st.hcount.(st.height.(v)) <- st.hcount.(st.height.(v)) - 1;
      st.height.(v) <- st.limit;
      st.gap_jumps <- st.gap_jumps + 1
    end
  done

(* backward BFS from unsaturated sinks along reverse residual arcs:
   exact distance labels, retiring unreachable vertices. The queue array
   doubles as BFS scratch (the active queue is rebuilt afterwards). *)
(* lint: hot *)
let global_relabel st =
  let n = st.net.Net.n in
  let net = st.net in
  st.global_relabels <- st.global_relabels + 1;
  Array.fill st.hcount 0 (Array.length st.hcount) 0;
  let head = ref 0 and tail = ref 0 in
  for v = 0 to n - 1 do
    if st.sink_left.(v) > 0 then begin
      st.height.(v) <- 0;
      st.queue.(!tail) <- v;
      incr tail
    end
    else st.height.(v) <- st.limit
  done;
  while !head < !tail do
    let u = st.queue.(!head) in
    incr head;
    let hu = st.height.(u) in
    for i = net.Net.first.(u) to net.Net.first.(u + 1) - 1 do
      let a = net.Net.arcs.(i) in
      let w = net.Net.arc_head.(a) in
      (* the twin of the out-arc u -> w is w -> u: residual capacity there
         means w can push toward u *)
      if net.Net.cap.(Net.twin a) > 0 && st.height.(w) = st.limit
         && hu + 1 < st.limit
      then begin
        st.height.(w) <- hu + 1;
        st.queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  for v = 0 to n - 1 do
    if st.height.(v) < st.limit then
      st.hcount.(st.height.(v)) <- st.hcount.(st.height.(v)) + 1
  done;
  (* rebuild the active queue from scratch *)
  st.qhead <- 0;
  st.qtail <- 0;
  Array.fill st.in_queue 0 n false;
  for v = 0 to n - 1 do
    st.current.(v) <- st.net.Net.first.(v);
    enqueue st v
  done

(* one discharge: push v's excess over admissible arcs, relabeling when
   the row is exhausted, until the excess is gone or v retires at the
   height cap. *)
(* lint: hot *)
let discharge st v =
  let net = st.net in
  let continue = ref (st.excess.(v) > 0 && st.height.(v) < st.limit) in
  while !continue do
    let row_end = net.Net.first.(v + 1) in
    let i = ref st.current.(v) in
    let hv = st.height.(v) in
    while st.excess.(v) > 0 && !i < row_end do
      let a = net.Net.arcs.(!i) in
      let w = net.Net.arc_head.(a) in
      if net.Net.cap.(a) > 0 && hv = st.height.(w) + 1 then begin
        let d = Int.min st.excess.(v) net.Net.cap.(a) in
        net.Net.cap.(a) <- net.Net.cap.(a) - d;
        let t = Net.twin a in
        net.Net.cap.(t) <- net.Net.cap.(t) + d;
        st.excess.(v) <- st.excess.(v) - d;
        st.excess.(w) <- st.excess.(w) + d;
        st.pushes <- st.pushes + 1;
        absorb st w;
        enqueue st w
      end
      else incr i;
      st.work <- st.work + 1
    done;
    st.current.(v) <- !i;
    if st.excess.(v) = 0 then continue := false
    else begin
      (* relabel: lift v to one above its lowest residual neighbor *)
      let best = ref st.limit in
      for j = net.Net.first.(v) to row_end - 1 do
        let a = net.Net.arcs.(j) in
        if net.Net.cap.(a) > 0 then begin
          let hw = st.height.(net.Net.arc_head.(a)) in
          if hw < !best then best := hw
        end;
        st.work <- st.work + 1
      done;
      let old = st.height.(v) in
      let nh = if !best >= st.limit then st.limit else !best + 1 in
      st.hcount.(old) <- st.hcount.(old) - 1;
      st.height.(v) <- nh;
      st.relabels <- st.relabels + 1;
      if nh < st.limit then st.hcount.(nh) <- st.hcount.(nh) + 1;
      st.current.(v) <- net.Net.first.(v);
      if st.hcount.(old) = 0 && old < st.limit then gap st old;
      if st.height.(v) >= st.limit then continue := false
    end
  done

let run net ~supply ~sink_cap ~limit =
  let n = net.Net.n in
  if Array.length supply <> n || Array.length sink_cap <> n then
    invalid_arg "Flow.Push_relabel.run: supply/sink_cap length mismatch";
  if limit < 1 then invalid_arg "Flow.Push_relabel.run: limit < 1";
  Array.iter
    (fun s -> if s < 0 then invalid_arg "Flow.Push_relabel.run: negative supply")
    supply;
  Array.iter
    (fun s ->
      if s < 0 then invalid_arg "Flow.Push_relabel.run: negative sink capacity")
    sink_cap;
  let st =
    {
      net;
      limit;
      height = Array.make n 0;
      excess = Array.copy supply;
      sink_left = Array.copy sink_cap;
      absorbed = Array.make n 0;
      current = Array.copy net.Net.first;
      queue = Array.make (n + 1) 0;
      qhead = 0;
      qtail = 0;
      in_queue = Array.make n false;
      hcount = Array.make (limit + 1) 0;
      routed = 0;
      pushes = 0;
      relabels = 0;
      gap_jumps = 0;
      global_relabels = 0;
      work = 0;
    }
  in
  st.hcount.(0) <- n;
  let supply_total = Array.fold_left ( + ) 0 supply in
  (* self-absorption first: a vertex that is both source and sink routes
     through itself at zero cost *)
  for v = 0 to n - 1 do
    absorb st v;
    enqueue st v
  done;
  (* exact distances are rebuilt after every 8 passes' worth of work *)
  let work_budget = 8 * (n + (2 * Array.length net.Net.arc_head)) in
  while st.qhead <> st.qtail do
    let v = dequeue st in
    discharge st v;
    if st.work >= work_budget then begin
      st.work <- 0;
      global_relabel st
    end
  done;
  Obs.Metric.count "flow.pushes" st.pushes;
  Obs.Metric.count "flow.relabels" st.relabels;
  Obs.Metric.count "flow.gap_jumps" st.gap_jumps;
  Obs.Metric.count "flow.global_relabels" st.global_relabels;
  {
    routed = st.routed;
    supply_total;
    height = st.height;
    excess = st.excess;
    absorbed = st.absorbed;
    pushes = st.pushes;
    relabels = st.relabels;
    gap_jumps = st.gap_jumps;
    global_relabels = st.global_relabels;
  }

(* Level-cut sweep over the heights of a terminated bounded run: for each
   threshold level l, the side {v | height v >= l} is separated from the
   sinks; pick the threshold of minimum conductance. Crossing counts and
   volumes accumulate once over the edges via difference arrays, so the
   whole sweep is O(n + m + limit). *)
let level_cut g ~height ~limit =
  let n = Graph.n g in
  let max_h = Array.fold_left (fun acc h -> max acc (min h limit)) 0 height in
  if max_h = 0 then None
  else begin
    let vol_at = Array.make (max_h + 2) 0 in
    let cross = Array.make (max_h + 2) 0 in
    for v = 0 to n - 1 do
      let h = Int.min height.(v) max_h in
      vol_at.(h) <- vol_at.(h) + Graph.degree g v
    done;
    Graph.iter_edges g (fun _ u v ->
        let hu = min height.(u) max_h and hv = min height.(v) max_h in
        let lo = min hu hv and hi = max hu hv in
        (* the edge crosses the cut for thresholds in (lo, hi] *)
        if lo < hi then begin
          cross.(lo + 1) <- cross.(lo + 1) + 1;
          cross.(hi + 1) <- cross.(hi + 1) - 1
        end);
    let total_vol = 2 * Graph.m g in
    (* suffix.(l) = volume of {v | height >= l} *)
    let vol_ge = ref 0 in
    let suffix = Array.make (max_h + 2) 0 in
    for h = max_h downto 0 do
      vol_ge := !vol_ge + vol_at.(h);
      suffix.(h) <- !vol_ge
    done;
    let best = ref infinity and best_l = ref (-1) in
    let crossing = ref 0 in
    for l = 1 to max_h do
      crossing := !crossing + cross.(l);
      let vol_s = suffix.(l) in
      let denom = Int.min vol_s (total_vol - vol_s) in
      if denom > 0 then begin
        let phi = float_of_int !crossing /. float_of_int denom in
        if phi < !best then begin
          best := phi;
          best_l := l
        end
      end
    done;
    if !best_l < 0 then None
    else begin
      let side = Array.map (fun h -> min h max_h >= !best_l) height in
      Some (side, !best)
    end
  end
