open Sparse_graph

(* Batched serving on top of the witness hierarchy. [serve] is the
   in-memory planner: it answers a demand matrix with per-demand path
   lengths (p50/p99/max) and per-edge weighted congestion. A demand is
   charged once it is fully routed, per leg of the planner's log
   ([Hierarchy.charge]): a single hop at its recorded edge id, a witness
   bundle by walking its stored edge-id array. Serving therefore neither
   searches the graph for an edge nor writes out the path. The batch is
   sharded over the worker pool in fixed-size epochs: each task routes
   one chunk with a private router and a private snapshot of the
   congestion array, and the coordinator folds the congestion deltas and
   cursor advances back in task order after every epoch. Chunk and epoch
   sizes are constants, so the snapshots every demand is routed against
   — and therefore every path, length and summary byte — are identical
   at every [--jobs].

   [plan] expands each demand's legs into its concrete path (an
   exact-size array, forward bundles blitted); [serve_congest] ships the
   single serve pass's plans in CONGEST rounds via Distr.Witness_routing
   and checks the deliveries against the planner. *)

type demand = { src : int; dst : int; weight : int }

(* Epoch geometry: routing is sharded in chunks of [chunk] demands,
   [tasks_per_epoch] chunks per epoch. All snapshots are taken at epoch
   boundaries, so these constants are part of the output contract —
   changing them changes which congestion state each demand sees. *)
let chunk = 2048
let tasks_per_epoch = 8

type t = {
  g : Graph.t;
  hier : Hierarchy.t;
  pool : Parallel.Pool.t;
  cong : int array;  (* per edge id, weighted load of the last batch *)
  coord : Hierarchy.router;        (* the merged serving stream *)
  trouters : Hierarchy.router array;  (* per task-slot routers *)
  tcong : int array array;            (* per task-slot load snapshots *)
  touts : Hierarchy.vec array;        (* per task-slot leg logs *)
  tspan : unit array;                 (* mapi input, one slot per task *)
}

type summary = {
  demands : int;
  delivered : int;   (* demands the planner routed *)
  failed : int;      (* demands with disconnected endpoints *)
  fallbacks : int;   (* legs that left the witness structures *)
  rounds_p50 : int;  (* per-demand path length (edges), percentiles *)
  rounds_p99 : int;
  rounds_max : int;
  congestion_max : int;    (* heaviest weighted per-edge load *)
  congestion_total : int;  (* sum of weight * length over demands *)
}

let preprocess ?(pool = Parallel.Pool.sequential) g decomp =
  let hier = Hierarchy.build ~pool g decomp in
  let m = Graph.m g in
  {
    g;
    hier;
    pool;
    cong = Array.make m 0;
    coord = Hierarchy.make_router hier;
    trouters = Array.init tasks_per_epoch (fun _ -> Hierarchy.make_router hier);
    tcong = Array.init tasks_per_epoch (fun _ -> Array.make m 0);
    touts = Array.init tasks_per_epoch (fun _ -> Hierarchy.vec_create ());
    tspan = Array.make tasks_per_epoch ();
  }

let hierarchy t = t.hier
let congestion t = t.cong

(* nearest-rank percentile of [len] values counted in [hist] (value ->
   occurrences): the smallest value whose cumulative count reaches the
   rank *)
let percentile hist len p =
  if len = 0 then 0
  else begin
    let rank = max 1 (min len ((len * p + 99) / 100)) in
    let v = ref 0 and seen = ref hist.(0) in
    while !seen < rank do
      incr v;
      seen := !seen + hist.(!v)
    done;
    !v
  end

(* the diversion gate of an epoch: twice the snapshot's mean edge load.
   Least-loaded probes a destination entry only when its natural bundle
   is hotter than that. *)
let mean_load_gate cong =
  let m = Array.length cong in
  if m = 0 then 0 else 2 * Array.fold_left ( + ) 0 cong / m

(* route demands [lo, hi) with task slot [ti]'s private router and load
   snapshot, recording lengths (and paths) at the demands' own indices *)
let serve_chunk t ~policy ~gate ~ti (ds : demand array) lengths paths lo hi =
  let rt = t.trouters.(ti) in
  let tc = t.tcong.(ti) in
  let out = t.touts.(ti) in
  Array.blit t.cong 0 tc 0 (Array.length t.cong);
  Hierarchy.sync_router t.hier ~gate ~src:t.coord ~dst:rt;
  let keep = Array.length paths > 0 in
  for i = lo to hi - 1 do
    let d = ds.(i) in
    if Hierarchy.route ~policy ~cong:tc t.hier rt out d.src d.dst then begin
      Hierarchy.charge tc out d.weight;
      lengths.(i) <- Hierarchy.vec_hops out;
      if keep then paths.(i) <- Hierarchy.vec_to_array out
    end
    else lengths.(i) <- -1
  done

(* fold the epoch's task snapshots into the global congestion array:
   new = old + sum of per-task deltas, accumulated in task order *)
(* lint: hot *)
let merge_cong t ~active =
  let m = Array.length t.cong in
  for e = 0 to m - 1 do
    let base = t.cong.(e) in
    let s = ref base in
    for ti = 0 to active - 1 do
      s := !s + t.tcong.(ti).(e) - base
    done;
    t.cong.(e) <- !s
  done

(* the single serving pass behind [serve] / [plan] / [serve_congest]:
   routes every demand once; fills and returns the per-demand lengths
   (-1 = unroutable) and, when [keep], the concrete paths *)
let serve_core ~policy ~keep t (ds : demand array) =
  Obs.Span.with_ "route.serve" @@ fun () ->
  Array.fill t.cong 0 (Array.length t.cong) 0;
  Hierarchy.reset_router t.hier t.coord;
  let nd = Array.length ds in
  let lengths = Array.make (max 1 nd) (-1) in
  let paths = if keep then Array.make (max 1 nd) [||] else [||] in
  let epoch = chunk * tasks_per_epoch in
  let nepochs = (nd + epoch - 1) / epoch in
  for ep = 0 to nepochs - 1 do
    Obs.Span.with_ "route.epoch" @@ fun () ->
    let base = ep * epoch in
    let active = Int.min tasks_per_epoch ((nd - base + chunk - 1) / chunk) in
    (* every task of the epoch starts from this snapshot, so the gate is
       the same at every pool size *)
    let gate = mean_load_gate t.cong in
    ignore
      (Parallel.Pool.mapi t.pool
         (fun ti () ->
           let lo = base + (ti * chunk) in
           let hi = Int.min nd (lo + chunk) in
           if lo < hi then serve_chunk t ~policy ~gate ~ti ds lengths paths lo hi)
         t.tspan);
    merge_cong t ~active;
    for ti = 0 to active - 1 do
      Hierarchy.merge_router t.hier ~src:t.trouters.(ti) ~dst:t.coord
    done
  done;
  (lengths, paths)

let summarize t (ds : demand array) lengths =
  let nd = Array.length ds in
  let del = ref 0 and failed = ref 0 and longest = ref 0 in
  for i = 0 to nd - 1 do
    let l = lengths.(i) in
    if l >= 0 then begin
      incr del;
      if l > !longest then longest := l
    end
    else incr failed
  done;
  let del = !del in
  (* percentiles by counting: lengths are bounded by the batch maximum *)
  let hist = Array.make (!longest + 1) 0 in
  for i = 0 to nd - 1 do
    let l = lengths.(i) in
    if l >= 0 then hist.(l) <- hist.(l) + 1
  done;
  let congestion_max = Array.fold_left max 0 t.cong in
  let congestion_total = Array.fold_left ( + ) 0 t.cong in
  let s =
    {
      demands = nd;
      delivered = del;
      failed = !failed;
      fallbacks = Hierarchy.router_fallbacks t.coord;
      rounds_p50 = percentile hist del 50;
      rounds_p99 = percentile hist del 99;
      rounds_max = !longest;
      congestion_max;
      congestion_total;
    }
  in
  if Obs.enabled () then begin
    Obs.Metric.count "route.demands" s.demands;
    Obs.Metric.count "route.delivered" s.delivered;
    Obs.Metric.count "route.failed" s.failed;
    Obs.Metric.count "route.rounds_p50" s.rounds_p50;
    Obs.Metric.count "route.rounds_p99" s.rounds_p99;
    Obs.Metric.count "route.congestion_max" s.congestion_max;
    let h = Hierarchy.router_hops t.coord in
    Obs.Metric.count "route.hops_direct" h.Hierarchy.direct;
    Obs.Metric.count "route.hops_shortcut" h.Hierarchy.shortcut;
    Obs.Metric.count "route.hops_portal" h.Hierarchy.portal;
    Obs.Metric.count "route.hops_fallback" h.Hierarchy.fallback;
    Obs.Metric.count "route.legs" (Hierarchy.router_legs t.coord);
    let d = Hierarchy.router_diversion t.coord in
    Obs.Metric.count "route.divert_probes" d.Hierarchy.probed;
    Obs.Metric.count "route.divert_gated" d.Hierarchy.gated;
    Obs.Metric.count "route.diversions" d.Hierarchy.diverted
  end;
  s

let serve ?(policy = Hierarchy.Least_loaded) t (ds : demand array) =
  let lengths, _ = serve_core ~policy ~keep:false t ds in
  summarize t ds lengths

(* retained plans, [||] for an unroutable demand *)
let plan ?(policy = Hierarchy.Least_loaded) t (ds : demand array) =
  let _, paths = serve_core ~policy ~keep:true t ds in
  Array.sub paths 0 (Array.length ds)

type congest_run = {
  planner : summary;
  routed : Distr.Witness_routing.result;
  match_planner : bool;
      (* shipper delivered exactly the planner's demand multiset *)
}

let serve_congest t (ds : demand array) ~max_rounds =
  (* one routing pass: the served paths are the shipped plans *)
  let lengths, paths =
    serve_core ~policy:Hierarchy.Least_loaded ~keep:true t ds
  in
  let planner = summarize t ds lengths in
  let routable = Array.make (max 1 planner.delivered) [||] in
  let k = ref 0 in
  for i = 0 to Array.length ds - 1 do
    if lengths.(i) >= 0 then begin
      routable.(!k) <- paths.(i);
      incr k
    end
  done;
  let routable = Array.sub routable 0 planner.delivered in
  let routed =
    Distr.Witness_routing.run t.g ~plans:routable ~max_rounds
  in
  let match_planner =
    Distr.Witness_routing.check ~plans:routable routed
    && routed.Distr.Witness_routing.undelivered = 0
    && Array.length routable = planner.delivered
  in
  { planner; routed; match_planner }
