(* The four workloads and the two ways of running one.

   Every workload drives the whole public pipeline on one process with
   the sequential pool: Core.Pipeline.prepare (Charged, cut-matching) and
   Core.Pipeline.routing_service are the one-time set-up; then a closed
   loop repeats three operations, each starting when the previous one
   finished -- Route.Service.serve on a demand batch,
   Route.Service.serve_congest on a smaller slice executed on the CONGEST
   simulator, and Core.App_mis.run (Theorem 1.2, Simulated mode) on a
   smaller graph of the same family. The workloads differ only in their
   inputs: graph family (grid: a recursed decomposition and long routes;
   random Apollonian planar: one cluster, short routes, a set-up
   dominated by the exact cluster diameter) and traffic (uniform pairs,
   or 90% of demands to one hot vertex).

   [run] measures with Obs off and reports the end-to-end metrics.
   [run_traced] alternates untraced and traced pipeline passes, wraps
   each call into a layer in a "bench.<layer>" span, and reads the
   per-layer numbers back from the span tree. *)

open Sparse_graph

type family = Grid | Planar

type spec = {
  name : string;
  family : family;
  hotspot : bool;
  n : int;  (* routing graph *)
  serve_demands : int;  (* Service.serve batch *)
  congest_demands : int;  (* Service.serve_congest slice *)
  app_n : int;  (* App_mis graph *)
}

(* batch sizes put each operation near half a second on one 2020s core *)
let workloads =
  let grid hotspot =
    {
      name = (if hotspot then "grid-hotspot" else "grid-uniform");
      family = Grid;
      hotspot;
      n = 4096;
      serve_demands = 40_000;
      congest_demands = 1_000;
      app_n = 256;
    }
  in
  let planar hotspot =
    {
      name = (if hotspot then "planar-hotspot" else "planar-uniform");
      family = Planar;
      hotspot;
      n = 4096;
      serve_demands = 400_000;
      congest_demands = 20_000;
      app_n = 1024;
    }
  in
  [ grid false; grid true; planar false; planar true ]

(* the same pipeline at n = 256, for the build-time smoke test *)
let tiny spec =
  {
    spec with
    n = 256;
    serve_demands = 2_000;
    congest_demands = 200;
    app_n = (match spec.family with Grid -> 64 | Planar -> 128);
  }

(* fixed program parameters. The graphs are fixed too: random Apollonian
   graphs differ so much from seed to seed (diameter, hub degrees) that
   set-up, route length and MIS gathering time would vary by 2x across
   seeds, hiding any regression; --seed draws the traffic. *)
let graph_seed = 20220711
let epsilon = 0.5
let decomp_seed = 20220711
let hierarchy_seed = 31
let app_seed = 7
let hot_fraction = 0.9
let max_rounds = 1_000_000
let setup_reps = 3
let min_rounds = 3
let probe_sources = 512
let probe_per_source = 8
let latency_probes = 32_768
let latency_block = 32

(* ------------------------------------------------------------------ *)
(* Inputs                                                               *)
(* ------------------------------------------------------------------ *)

let graph_of family n =
  match family with
  | Grid ->
      let side = int_of_float (sqrt (float_of_int n)) in
      Generators.grid side side
  | Planar -> Generators.random_apollonian n ~seed:graph_seed

let destination g ~hotspot st =
  let n = Graph.n g in
  if hotspot && Random.State.float st 1.0 < hot_fraction then n / 2
  else Random.State.int st n

let demands g ~hotspot ~count st =
  Array.init count (fun _ ->
      let src = Random.State.int st (Graph.n g) in
      { Route.Service.src; dst = destination g ~hotspot st; weight = 1 })

(* stretch probe: [probe_per_source] consecutive demands share a source,
   so one BFS per source gives their shortest distances. It is drawn from
   a fixed seed, not --seed: drawn anew per run it moved the median
   stretch by up to 18% between seeds and the p99 by up to 2x, so the
   stretch metrics are exact functions of the code instead *)
let probe g ~hotspot st =
  Array.concat
    (List.init probe_sources (fun _ ->
         let src = Random.State.int st (Graph.n g) in
         Array.init probe_per_source (fun _ ->
             { Route.Service.src; dst = destination g ~hotspot st; weight = 1 })))

type inputs = {
  g : Graph.t;
  app_g : Graph.t;
  batch : Route.Service.demand array;
  slice : Route.Service.demand array;
  probe : Route.Service.demand array;
  latency : Route.Service.demand array;  (* uniform, for Hierarchy.route *)
}

let inputs spec ~seed =
  let g = graph_of spec.family spec.n in
  let st tag = Random.State.make [| seed; tag |] in
  let hotspot = spec.hotspot in
  {
    g;
    app_g = graph_of spec.family spec.app_n;
    batch = demands g ~hotspot ~count:spec.serve_demands (st 1);
    slice = demands g ~hotspot ~count:spec.congest_demands (st 2);
    probe = probe g ~hotspot (Random.State.make [| graph_seed; 3 |]);
    latency = demands g ~hotspot:false ~count:latency_probes (st 4);
  }

(* ------------------------------------------------------------------ *)
(* The pipeline calls                                                   *)
(* ------------------------------------------------------------------ *)

let pool = Parallel.Pool.sequential

let prepare g =
  Core.Pipeline.prepare ~mode:Core.Pipeline.Charged
    ~engine:Core.Pipeline.Cut_matching_engine ~pool g ~epsilon
    ~seed:decomp_seed

let service p = Core.Pipeline.routing_service ~seed:hierarchy_seed ~pool p
let serve svc inp = Route.Service.serve svc inp.batch
let congest svc inp = Route.Service.serve_congest svc inp.slice ~max_rounds

let app inp =
  Core.App_mis.run ~mode:Core.Pipeline.Simulated inp.app_g ~epsilon
    ~seed:app_seed

(* a full major collection first, so that an operation pays for its own
   garbage and not for the previous operation's *)
let timed f =
  Gc.full_major ();
  let t0 = Obs.Clock.wall_s () in
  let r = f () in
  (r, Obs.Clock.wall_s () -. t0)

(* ------------------------------------------------------------------ *)
(* Output checks                                                        *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int }

let check t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "check failed: %s\n%!" what
  end

(* a plan is a real walk: src first, dst last, every step an edge *)
let valid_walk g (d : Route.Service.demand) p =
  let len = Array.length p in
  let ok = ref (len >= 1 && p.(0) = d.src && p.(len - 1) = d.dst) in
  for i = 1 to len - 1 do
    if not (Graph.mem_edge g p.(i - 1) p.(i)) then ok := false
  done;
  !ok

let independent g set =
  let inside = Array.make (Graph.n g) false in
  List.for_all
    (fun v ->
      let fresh = v >= 0 && v < Graph.n g && not inside.(v) in
      if fresh then inside.(v) <- true;
      fresh)
    set
  && Graph.fold_edges g (fun ok _ u v -> ok && not (inside.(u) && inside.(v))) true

(* the deterministic face of each operation's output: every repetition
   must reproduce the first one exactly *)
let congest_key (c : Route.Service.congest_run) =
  (c.planner, c.routed.last_round, c.routed.undelivered)

let app_key (a : Core.App_mis.result) =
  (a.independent_set, a.pipeline.report.simulated_rounds)

(* compare each repetition's key with the first repetition's *)
let same_as_first t what key =
  let first = ref None in
  fun r ->
    let k = key r in
    match !first with
    | None -> first := Some k
    | Some k0 -> check t (what ^ " repeats its first output") (k = k0)

let check_serve t inp (s : Route.Service.summary) =
  check t "serve delivers every demand"
    (s.delivered = Array.length inp.batch && s.failed = 0)

let check_congest t (c : Route.Service.congest_run) =
  check t "serve_congest matches its planner and delivers everything"
    (c.match_planner && c.routed.undelivered = 0)

let check_app t inp (a : Core.App_mis.result) =
  check t "MIS output is an independent set"
    (independent inp.app_g a.independent_set
    && a.size = List.length a.independent_set)

(* after the timed loop: re-plan the probe and the slice, validate every
   probe plan as a walk, and check the simulator run against the slice's
   plans. Returns the probe's stretch: total plan hops over total BFS
   distance, and the p99 of the per-demand ratio (a heavy tail, set by
   near pairs routed through the witness tree) *)
let check_plans t inp svc (c : Route.Service.congest_run) =
  let plans = Route.Service.plan svc inp.probe in
  let ratios = ref [] and dist = ref [||] in
  let hops = ref 0 and shortest = ref 0 in
  Array.iteri
    (fun i p ->
      let d = inp.probe.(i) in
      if i mod probe_per_source = 0 then dist := Traversal.bfs inp.g d.src;
      check t "probe plan is a walk from src to dst" (valid_walk inp.g d p);
      hops := !hops + Array.length p - 1;
      shortest := !shortest + !dist.(d.dst);
      if d.src <> d.dst then
        ratios :=
          (float_of_int (Array.length p - 1) /. float_of_int !dist.(d.dst))
          :: !ratios)
    plans;
  let slice_plans = Route.Service.plan svc inp.slice in
  check t "Witness_routing.check on the slice's plans"
    (Distr.Witness_routing.check ~plans:slice_plans c.routed);
  ( float_of_int !hops /. float_of_int (max 1 !shortest),
    Results.percentile_sorted (Array.of_list (Results.sorted !ratios)) 99 )

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let record spec ~seed ~traced (t : tally) values =
  {
    Results.workload = spec.name;
    seed;
    traced;
    correct = t.failed = 0;
    attempted = t.attempted;
    failed = t.failed;
    values;
  }

(* nearest-rank p50 and p99 of the rounds at which tokens arrived *)
let delivery_rounds (c : Route.Service.congest_run) =
  let arrived = List.filter (fun r -> r >= 0) (Array.to_list c.routed.rounds_of) in
  let a = Array.of_list (List.map float_of_int (Results.sorted arrived)) in
  (Results.percentile_sorted a 50, Results.percentile_sorted a 99)

let spread_line name times =
  let s = Results.sorted times in
  Printf.sprintf "%s %.3f/%.3f/%.3f s" name (List.hd s) (Results.median s)
    (List.nth s (List.length s - 1))

(* ------------------------------------------------------------------ *)
(* Untraced run: the end-to-end metrics                                 *)
(* ------------------------------------------------------------------ *)

let run spec ~seed ~seconds =
  let t = { attempted = 0; failed = 0 } in
  let inp = inputs spec ~seed in
  let same_setup =
    same_as_first t "prepare" (fun (p : Core.Pipeline.t) ->
        (p.report.k, p.report.inter_edges, p.report.diameter_bound))
  in
  let svc = ref None and setup_times = ref [] in
  for _ = 1 to setup_reps do
    (* drop the previous service first, so top_heap_mb sees one *)
    svc := None;
    let (p, s), dt =
      timed (fun () ->
          let p = prepare inp.g in
          (p, service p))
    in
    same_setup p;
    svc := Some s;
    setup_times := dt :: !setup_times
  done;
  let svc = Option.get !svc in
  let same_serve = same_as_first t "serve" Fun.id in
  let same_congest = same_as_first t "serve_congest" congest_key in
  let same_app = same_as_first t "App_mis.run" app_key in
  let serve_t = ref [] and congest_t = ref [] and app_t = ref [] in
  let latest = ref None in
  let t0 = Obs.Clock.wall_s () in
  while List.length !serve_t < min_rounds || Obs.Clock.wall_s () -. t0 < seconds
  do
    let s, ds = timed (fun () -> serve svc inp) in
    check_serve t inp s;
    same_serve s;
    let c, dc = timed (fun () -> congest svc inp) in
    check_congest t c;
    same_congest c;
    let a, da = timed (fun () -> app inp) in
    check_app t inp a;
    same_app a;
    serve_t := ds :: !serve_t;
    congest_t := dc :: !congest_t;
    app_t := da :: !app_t;
    latest := Some (s, c, a)
  done;
  let s, c, a = Option.get !latest in
  let _, stretch_p99 = check_plans t inp svc c in
  let sim_p50, sim_p99 = delivery_rounds c in
  let i x = float_of_int x in
  Printf.eprintf "%s: %d loop rounds in %.1f s; min/median/max %s, %s, %s\n%!"
    spec.name (List.length !serve_t)
    (Obs.Clock.wall_s () -. t0)
    (spread_line "serve" !serve_t)
    (spread_line "congest" !congest_t)
    (spread_line "app" !app_t);
  record spec ~seed ~traced:false t
    [
      ("setup_s", Results.median !setup_times);
      ("demands_per_s", i spec.serve_demands /. Results.median !serve_t);
      ("sim_s", Results.median !congest_t);
      ("app_s", Results.median !app_t);
      ("top_heap_mb", top_heap_mb ());
      ("hops_p50", i s.rounds_p50);
      ("hops_p99", i s.rounds_p99);
      ("stretch_p99", stretch_p99);
      ("congestion_max", i s.congestion_max);
      ("sim_rounds_p50", sim_p50);
      ("sim_rounds_p99", sim_p99);
      ("app_rounds", i a.pipeline.report.simulated_rounds);
      ("mis_size", i a.size);
    ]

(* ------------------------------------------------------------------ *)
(* Traced run: the per-layer metrics                                    *)
(* ------------------------------------------------------------------ *)

module A = Obs.Agg

let volatile key (n : A.node) =
  Option.value ~default:0 (A.SMap.find_opt key n.A.volatile)

(* outermost descendants of [n] with span name [name] *)
let rec spans name (n : A.node) =
  A.SMap.fold
    (fun k c acc -> if k = name then c :: acc else spans name c @ acc)
    n.A.children []

let total f nodes = List.fold_left (fun acc n -> acc + f n) 0 nodes
let secs nodes = float_of_int (total (volatile "ns") nodes) /. 1e9
let mwords nodes = float_of_int (total (volatile "minor_w") nodes) /. 1e6
let counter key nodes =
  total (fun n -> Option.value ~default:0 (A.SMap.find_opt key (fst (A.totals n))))
    nodes
let peak key nodes =
  List.fold_left
    (fun acc n ->
      max acc (Option.value ~default:0 (A.SMap.find_opt key (snd (A.totals n)))))
    0 nodes

(* per-call Hierarchy.route latency, timed in blocks of [latency_block]
   consecutive calls: the wall clock ticks in microseconds, a planar
   route takes about one *)
let route_latency svc inp =
  let h = Route.Service.hierarchy svc in
  let rt = Route.Hierarchy.make_router h in
  let out = Route.Hierarchy.vec_create () in
  let cong = Route.Service.congestion svc in
  let blocks = Array.length inp.latency / latency_block in
  let per_call =
    Array.init blocks (fun b ->
        let t0 = Obs.Clock.now_ns () in
        for i = b * latency_block to ((b + 1) * latency_block) - 1 do
          let d = inp.latency.(i) in
          ignore
            (Route.Hierarchy.route ~policy:Route.Hierarchy.Least_loaded ~cong h
               rt out d.src d.dst)
        done;
        float_of_int (Obs.Clock.now_ns () - t0) /. float_of_int latency_block)
  in
  Array.sort compare per_call;
  (Results.percentile_sorted per_call 50, Results.percentile_sorted per_call 99)

(* one pipeline pass, each call into a layer inside a bench span (a
   no-op while Obs is off) *)
let pass inp =
  let span name f = Obs.Span.with_ ("bench." ^ name) f in
  let p = span "prepare" (fun () -> prepare inp.g) in
  let svc = span "service" (fun () -> service p) in
  let s = span "serve" (fun () -> serve svc inp) in
  let c = span "congest" (fun () -> congest svc inp) in
  let a = span "app" (fun () -> app inp) in
  (svc, s, c, a)

let layers tree svc (s : Route.Service.summary) =
  let at name = Option.to_list (A.find_path tree [ "bench." ^ name ]) in
  let under name roots = List.concat_map (spans name) roots in
  let prep = under "pipeline.prepare" (at "prepare") in
  let dec = under "cm-decompose" prep in
  let build = under "route.preprocess" (at "service") in
  let srv = under "route.serve" (at "serve") in
  let net = under "distr.witness_routing" (at "congest") in
  let app = at "app" in
  let app_prep = under "pipeline.prepare" app in
  let walk = under "distr.walk_routing" app in
  let info = Route.Hierarchy.info (Route.Service.hierarchy svc) in
  let i x = float_of_int x in
  let per num den = float_of_int num /. float_of_int (max 1 den) in
  let messages = counter Obs.Meter.k_messages net in
  [
    ("pipeline.prepare_s", secs prep);
    ("pipeline.prepare_mw", mwords prep);
    ("pipeline.geometry_s", secs (under "pipeline.geometry" prep));
    ("pipeline.diameter_s", secs (under "pipeline.diameter" prep));
    ("decomp.s", secs dec);
    ("decomp.mw", mwords dec);
    ("decomp.clusters", i (counter "clusters" dec));
    ("flow.games", i (counter "cm.games" dec));
    ("flow.game_rounds", i (counter "cm.rounds" dec));
    ("flow.flow_calls", i (counter "cm.flow_calls" dec));
    ("flow.pushes", i (counter "flow.pushes" dec));
    ("flow.relabels", i (counter "flow.relabels" dec));
    ("flow.heuristic_cuts", i (counter "cm.heuristic_cuts" dec));
    ("hierarchy.build_s", secs build);
    ("hierarchy.build_mw", mwords build);
    ("hierarchy.shortcuts", i info.shortcuts);
    ("hierarchy.rebuilt_leaves", i info.rebuilt_leaves);
    ("hierarchy.tree_height", i info.tree_height);
    ("hierarchy.max_leaf_depth", i info.max_leaf_depth);
    ("service.serve_s", secs srv);
    ("service.serve_mw", mwords srv);
    ("service.ns_per_hop", per (total (volatile "ns") srv) s.congestion_total);
    ("service.ns_per_demand", per (total (volatile "ns") srv) s.demands);
    ("service.hops_total", i s.congestion_total);
    ("service.fallbacks", i s.fallbacks);
    ("network.sim_s", secs net);
    ("network.messages", i messages);
    ("network.bits", i (counter Obs.Meter.k_bits net));
    ("network.active_vertices", i (counter Obs.Meter.k_active_vertices net));
    ("network.ns_per_message", per (total (volatile "ns") net) messages);
    ("network.words_per_message", per (total (volatile "minor_w") net) messages);
    ("network.inbox_peak_words", i (peak Obs.Meter.k_inbox_peak_words net));
    ("app.prepare_s", secs app_prep);
    ("pipeline.election_s", secs (under "pipeline.election" app_prep));
    ("pipeline.gather_s", secs (under "pipeline.gather" app_prep));
    ( "pipeline.gather_attempts",
      i (total (fun n -> n.A.count) (under "distr.gather" app_prep)) );
    ("walk.s", secs walk);
    ("walk.messages", i (counter Obs.Meter.k_messages walk));
    ("app.local_solve_s", secs app -. secs app_prep);
  ]

let run_traced spec ~seed ~seconds =
  let t = { attempted = 0; failed = 0 } in
  let inp, gen_s = timed (fun () -> inputs spec ~seed) in
  let same_serve = same_as_first t "serve" Fun.id in
  let same_congest = same_as_first t "serve_congest" congest_key in
  let same_app = same_as_first t "App_mis.run" app_key in
  let checked (svc, s, c, a) =
    check_serve t inp s;
    same_serve s;
    check_congest t c;
    same_congest c;
    check_app t inp a;
    same_app a;
    (svc, s, c)
  in
  let plain = ref [] and traced = ref [] and rows = ref [] in
  let latest = ref None in
  let t0 = Obs.Clock.wall_s () in
  while !traced = [] || Obs.Clock.wall_s () -. t0 < seconds do
    let r, dt = timed (fun () -> pass inp) in
    ignore (checked r);
    plain := dt :: !plain;
    Obs.reset ();
    Obs.enable ();
    let r, dt = timed (fun () -> pass inp) in
    Obs.disable ();
    traced := dt :: !traced;
    let svc, s, c = checked r in
    let tree = Obs.snapshot_tree () in
    Obs.reset ();
    let p50, p99 = route_latency svc inp in
    rows :=
      (("hierarchy.route_ns_p50", p50) :: ("hierarchy.route_ns_p99", p99)
       :: layers tree svc s)
      :: !rows;
    latest := Some (svc, c)
  done;
  let svc, c = Option.get !latest in
  let hops_per_distance, _ = check_plans t inp svc c in
  let column name = List.map (List.assoc name) !rows in
  let med = Results.median in
  let values =
    List.map
      (fun (x : Results.metric) ->
        match x.name with
        | "graph.gen_s" -> (x.name, gen_s)
        | "trace.overhead_frac" -> (x.name, (med !traced /. med !plain) -. 1.)
        | "hierarchy.hops_per_distance" -> (x.name, hops_per_distance)
        | name -> (name, med (column name)))
      Results.per_layer
  in
  Printf.eprintf "%s: %d traced passes in %.1f s\n%!" spec.name
    (List.length !traced) (Obs.Clock.wall_s () -. t0);
  record spec ~seed ~traced:true t values
