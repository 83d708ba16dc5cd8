open Sparse_graph
open Flow

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg ~eps expected got =
  Alcotest.(check (float eps)) msg expected got

let unit_net g = Net.of_graph ~capacity:(fun _ -> 1) g

(* signed net flow on edge [e], positive in the u -> v direction of its
   normalized endpoints *)
let edge_flow net e = net.Net.cap0.(2 * e) - net.Net.cap.(2 * e)

(* ------------------------------------------------------------------ *)
(* Residual networks                                                   *)
(* ------------------------------------------------------------------ *)

let test_net_structure () =
  let g = Generators.cycle 4 in
  let net = unit_net g in
  checki "arc count" (2 * Graph.m g) (Array.length net.Net.cap);
  for e = 0 to Graph.m g - 1 do
    checki "twin of forward arc" ((2 * e) + 1) (Net.twin (2 * e));
    checki "twin of reverse arc" (2 * e) (Net.twin ((2 * e) + 1));
    checki "zero flow initially" 0 (edge_flow net e)
  done;
  checkb "feasible initially" true (Net.feasible net);
  for v = 0 to 3 do
    checki "zero divergence initially" 0 (Net.divergence net v)
  done

let test_net_capacity_and_reset () =
  let g = Generators.path 3 in
  let net = Net.of_graph ~capacity:(fun e -> e + 2) g in
  checki "edge 0 capacity" 2 net.Net.cap0.(0);
  checki "edge 1 capacity" 3 net.Net.cap0.(2);
  net.Net.cap.(0) <- 0;
  net.Net.cap.(1) <- 4;
  checkb "flow shows on the edge" true (edge_flow net 0 <> 0);
  Net.reset net;
  checki "reset restores arc 0" 2 net.Net.cap.(0);
  checki "reset restores twin" 2 net.Net.cap.(1);
  checki "reset clears flow" 0 (edge_flow net 0)

let test_net_rejects_negative_capacity () =
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Flow.Net.of_graph: negative capacity -1 on edge 0")
    (fun () ->
      ignore (Net.of_graph ~capacity:(fun _ -> -1) (Generators.cycle 3)))

(* ------------------------------------------------------------------ *)
(* Exact s-t max flow                                                  *)
(* ------------------------------------------------------------------ *)

(* the exact s-t max flow of [g] under the per-edge capacities (default
   1), by Push_relabel.run: saturate [s]'s supply and run with
   [limit = n + 1], then drain the excess the preflow parks at interior
   vertices back to [s]. Returns [(value, net, outcome)] with a clean s-t
   flow left in [net] and the forward run's outcome. *)
let max_flow_st ?(capacity = fun _ -> 1) g ~s ~t =
  let n = Graph.n g in
  if s = t || s < 0 || t < 0 || s >= n || t >= n then
    invalid_arg "max_flow_st: bad endpoints";
  let net = Net.of_graph ~capacity g in
  let supply = Array.make n 0 in
  let sink_cap = Array.make n 0 in
  let out_cap = ref 0 in
  for i = net.Net.first.(s) to net.Net.first.(s + 1) - 1 do
    out_cap := !out_cap + net.Net.cap0.(net.Net.arcs.(i))
  done;
  supply.(s) <- !out_cap;
  sink_cap.(t) <- max 1 !out_cap;
  let o = Push_relabel.run net ~supply ~sink_cap ~limit:(n + 1) in
  (* excess parked at interior vertices cannot reach [t]; routing it back
     to [s] along residual arcs reverses its own inflow paths *)
  let leftover = Array.copy o.Push_relabel.excess in
  leftover.(s) <- 0;
  if Array.exists (fun e -> e > 0) leftover then begin
    let back_cap = Array.make n 0 in
    back_cap.(s) <- o.Push_relabel.supply_total;
    let drain =
      Push_relabel.run net ~supply:leftover ~sink_cap:back_cap ~limit:(n + 1)
    in
    if not (Push_relabel.fully_routed drain) then
      Alcotest.fail "max_flow_st: the drain back to s left excess"
  end;
  (o.Push_relabel.absorbed.(t), net, o)

let flow_value g ?capacity ~s ~t () =
  let v, net, outcome = max_flow_st ?capacity g ~s ~t in
  (* conservation: the flow diverges only at the endpoints *)
  checkb "network stays feasible" true (Net.feasible net);
  checki "source divergence" v (Net.divergence net s);
  checki "sink divergence" (-v) (Net.divergence net t);
  for u = 0 to Graph.n g - 1 do
    if u <> s && u <> t then checki "interior vertex" 0 (Net.divergence net u)
  done;
  checkb "exact run fully routes or saturates" true
    (outcome.Push_relabel.routed = v);
  v

let test_max_flow_cycle () =
  checki "two arc-disjoint paths around C8" 2
    (flow_value (Generators.cycle 8) ~s:0 ~t:4 ())

let test_max_flow_path () =
  checki "single path" 1 (flow_value (Generators.path 6) ~s:0 ~t:5 ())

let test_max_flow_complete () =
  (* K6 with unit capacities: the direct edge plus 4 two-hop paths *)
  checki "K6 connectivity" 5 (flow_value (Generators.complete 6) ~s:0 ~t:3 ())

let test_max_flow_barbell_bridge () =
  let g = Generators.barbell 5 1 in
  checki "bridge bottleneck" 1 (flow_value g ~s:0 ~t:(Graph.n g - 1) ())

let test_max_flow_weighted () =
  (* C4 with capacity 3 on every edge: both directions carry 3 *)
  checki "weighted cycle" 6
    (flow_value (Generators.cycle 4) ~capacity:(fun _ -> 3) ~s:0 ~t:2 ())

let test_max_flow_validation () =
  let g = Generators.cycle 4 in
  Alcotest.check_raises "s = t"
    (Invalid_argument "max_flow_st: bad endpoints")
    (fun () ->
      ignore (max_flow_st g ~s:1 ~t:1))

(* brute-force min cut: enumerate every side containing s but not t *)
let brute_min_cut g ~capacity ~s ~t =
  let n = Graph.n g in
  let best = ref max_int in
  for mask = 0 to (1 lsl n) - 1 do
    if mask land (1 lsl s) <> 0 && mask land (1 lsl t) = 0 then begin
      let c =
        Graph.fold_edges g
          (fun acc e u v ->
            let su = mask land (1 lsl u) <> 0 in
            let sv = mask land (1 lsl v) <> 0 in
            if su <> sv then acc + capacity e else acc)
          0
      in
      if c < !best then best := c
    end
  done;
  !best

let test_max_flow_equals_min_cut_fixed () =
  List.iter
    (fun (name, g) ->
      let capacity e = 1 + (e mod 3) in
      let v, _, _ = max_flow_st ~capacity g ~s:0 ~t:(Graph.n g - 1) in
      checki (name ^ ": max flow = min cut")
        (brute_min_cut g ~capacity ~s:0 ~t:(Graph.n g - 1))
        v)
    [
      ("C6", Generators.cycle 6);
      ("K5", Generators.complete 5);
      ("grid2x4", Generators.grid 2 4);
      ("barbell", Generators.barbell 4 1);
    ]

(* ------------------------------------------------------------------ *)
(* Bounded-height runs and level cuts                                  *)
(* ------------------------------------------------------------------ *)

let test_bounded_height_retires () =
  (* barbell: 8 units of supply in one clique, sinks in the other; only
     one unit fits through the bridge, the rest retires at the cap *)
  let g = Generators.barbell 8 2 in
  let n = Graph.n g in
  let net = unit_net g in
  let supply = Array.init n (fun v -> if v < 8 then 1 else 0) in
  let sink_cap = Array.init n (fun v -> if v >= n - 8 then 1 else 0) in
  let limit = 4 in
  let outcome = Push_relabel.run net ~supply ~sink_cap ~limit in
  checki "supply counted" 8 outcome.Push_relabel.supply_total;
  checkb "not fully routed" false (Push_relabel.fully_routed outcome);
  Array.iter
    (fun h -> checkb "height within the cap" true (h >= 0 && h <= limit))
    outcome.Push_relabel.height;
  (* the level structure certifies a sparse cut *)
  match Push_relabel.level_cut g ~height:outcome.Push_relabel.height ~limit with
  | None -> Alcotest.fail "retired run must yield a level cut"
  | Some (side, c) ->
      checkf "reported conductance matches the mask" ~eps:1e-9
        (Spectral.Conductance.of_cut g side)
        c;
      checkb "cut is sparse (bridge-like)" true (c <= 0.2)

let test_level_cut_none_when_flat () =
  let g = Generators.cycle 4 in
  match Push_relabel.level_cut g ~height:(Array.make 4 0) ~limit:3 with
  | None -> ()
  | Some _ -> Alcotest.fail "flat heights have no level structure"

let test_run_validation () =
  let g = Generators.cycle 4 in
  let net = unit_net g in
  Alcotest.check_raises "negative supply"
    (Invalid_argument "Flow.Push_relabel.run: negative supply") (fun () ->
      ignore
        (Push_relabel.run net ~supply:[| -1; 0; 0; 0 |]
           ~sink_cap:(Array.make 4 1) ~limit:5))

(* ------------------------------------------------------------------ *)
(* Path decomposition                                                  *)
(* ------------------------------------------------------------------ *)

let test_decompose_st_flow () =
  let g = Generators.grid 4 4 in
  let v, net, _ = max_flow_st g ~s:0 ~t:15 in
  let dec = Path_decompose.decompose net in
  checki "total equals flow value" v dec.Path_decompose.total;
  checki "amounts add up" v
    (Array.fold_left ( + ) 0 dec.Path_decompose.amounts);
  Array.iteri
    (fun i vs ->
      let es = dec.Path_decompose.edges.(i) in
      let len = Array.length es in
      checki "every path starts at s" 0 vs.(0);
      checki "every path ends at t" 15 vs.(len);
      checki "one vertex per arc, plus the source" (len + 1) (Array.length vs);
      checkb "positive length" true (len >= 1);
      checkb "length within max" true (len <= dec.Path_decompose.max_length);
      Array.iteri
        (fun q e ->
          let a, b = Graph.endpoints g e in
          checkb "edge id joins consecutive vertices" true
            ((a, b) = (min vs.(q) vs.(q + 1), max vs.(q) vs.(q + 1))))
        es)
    dec.Path_decompose.vertices

let test_decompose_leaves_net_intact () =
  let g = Generators.cycle 8 in
  let _, net, _ = max_flow_st g ~s:0 ~t:4 in
  let before = Array.copy net.Net.cap in
  ignore (Path_decompose.decompose net);
  Alcotest.(check (array int)) "net not mutated" before net.Net.cap

let test_decompose_zero_flow () =
  let net = unit_net (Generators.cycle 5) in
  let dec = Path_decompose.decompose net in
  checki "no paths" 0 (Array.length dec.Path_decompose.vertices);
  checki "zero total" 0 dec.Path_decompose.total

(* ------------------------------------------------------------------ *)
(* Cut heuristics                                                      *)
(* ------------------------------------------------------------------ *)

let test_component_cut () =
  let g =
    Graph_fixtures.disjoint_union (Generators.cycle 5) (Generators.complete 4)
  in
  (match Cut_heuristics.component_cut g with
  | None -> Alcotest.fail "disconnected graph must yield a component cut"
  | Some cut ->
      checkf "zero conductance" ~eps:1e-9 0. cut.Cut_heuristics.conductance;
      checkf "mask agrees" ~eps:1e-9 0.
        (Spectral.Conductance.of_cut g cut.Cut_heuristics.side);
      Alcotest.(check string) "source" "component" cut.Cut_heuristics.source);
  checkb "connected graph has none" true
    (Cut_heuristics.component_cut (Generators.cycle 5) = None)

let test_cheapest_finds_barbell () =
  let g = Generators.barbell 8 2 in
  match Cut_heuristics.cheapest g ~tau:0.3 with
  | None -> Alcotest.fail "a sweep should see the bridge"
  | Some cut ->
      checkb "below tau" true (cut.Cut_heuristics.conductance < 0.3);
      checkf "mask agrees" ~eps:1e-9
        (Spectral.Conductance.of_cut g cut.Cut_heuristics.side)
        cut.Cut_heuristics.conductance

let test_cheapest_rejects_expander () =
  (* K12's best cut has conductance ~0.55: no sweep beats tau = 0.1 *)
  checkb "no cheap cut on K12" true
    (Cut_heuristics.cheapest (Generators.complete 12) ~tau:0.1 = None)

(* ------------------------------------------------------------------ *)
(* Cut-matching game                                                   *)
(* ------------------------------------------------------------------ *)

let matching_is_partial_perfect ~n pairs =
  (* every vertex at most once, endpoints in range, n/2 pairs *)
  let seen = Array.make n false in
  Array.for_all
    (fun (a, b) ->
      a >= 0 && a < n && b >= 0 && b < n && a <> b
      && (not seen.(a)) && not seen.(b)
      &&
      (seen.(a) <- true;
       seen.(b) <- true;
       true))
    pairs
  && Array.length pairs = n / 2

let test_game_accepts_complete () =
  let g = Generators.complete 16 in
  let verdict, stats = Cut_matching.run ~adaptive:false g ~tau:0.2 ~seed:5 in
  match verdict with
  | Cut_matching.Cut _ -> Alcotest.fail "K16 is an expander"
  | Cut_matching.Expander w ->
      checkb "some rounds played" true (w.Cut_matching.rounds >= 1);
      checkb "every routed round embedded a matching" true
        (List.length w.Cut_matching.matchings = w.Cut_matching.rounds);
      checkb "flow ran" true (stats.Cut_matching.flow_calls >= 1);
      checki "congestion is the per-edge capacity" 5 w.Cut_matching.congestion;
      checkb "paths have positive length" true
        (w.Cut_matching.max_path_length >= 1);
      List.iter
        (fun pairs ->
          checkb "each matching is perfect across the bisection" true
            (matching_is_partial_perfect ~n:16 pairs))
        w.Cut_matching.matchings

let test_game_cuts_barbell () =
  let g = Generators.barbell 8 2 in
  let verdict, _ = Cut_matching.run ~adaptive:false g ~tau:0.25 ~seed:3 in
  match verdict with
  | Cut_matching.Expander _ -> Alcotest.fail "the barbell bridge must be found"
  | Cut_matching.Cut c ->
      checkb "below tau" true (c.Cut_matching.conductance < 0.25);
      checkf "mask agrees" ~eps:1e-9
        (Spectral.Conductance.of_cut g c.Cut_matching.side)
        c.Cut_matching.conductance;
      checkb "via is tagged" true
        (List.mem c.Cut_matching.via
           [ "projection"; "flow"; "projection-fallback" ])

let test_game_trivial_accepts () =
  List.iter
    (fun g ->
      match Cut_matching.run ~adaptive:false g ~tau:0.5 ~seed:1 with
      | Cut_matching.Expander w, stats ->
          checki "no rounds" 0 w.Cut_matching.rounds;
          checki "no flow" 0 stats.Cut_matching.flow_calls
      | Cut_matching.Cut _, _ -> Alcotest.fail "trivial cluster was cut")
    [ Generators.path 2; Generators.cycle 3; Graph.empty 5 ]

let test_game_deterministic () =
  let g = Generators.random_apollonian 40 ~seed:9 in
  let v1 = Cut_matching.run ~adaptive:false g ~tau:0.2 ~seed:17 in
  let v2 = Cut_matching.run ~adaptive:false g ~tau:0.2 ~seed:17 in
  checkb "identical verdict and stats on identical input" true (v1 = v2)

(* ------------------------------------------------------------------ *)
(* Flow-based decomposition engine                                     *)
(* ------------------------------------------------------------------ *)

let check_cm_decomposition g eps =
  let d, stats = Decomp_engine.decompose g ~epsilon:eps in
  let open Spectral.Expander_decomposition in
  Array.iter
    (fun l -> checkb "label in range" true (l >= 0 && l < d.k))
    d.labels;
  let inter_ok, worst = verify ~power_iters:120 ~seed:0 g d in
  checkb "inter-cluster fraction within epsilon" true inter_ok;
  checkb
    (Printf.sprintf "cluster conductance %.4f >= phi %.4f" worst d.phi)
    true
    (worst >= d.phi -. 1e-9);
  (d, stats)

(* the acceptance oracle: on graphs small enough to enumerate, every
   accepted cluster's exact conductance must reach the certified phi *)
let check_against_exact_oracle g eps =
  let d, _ = Decomp_engine.decompose g ~epsilon:eps in
  Array.iter
    (fun (_, sub, _) ->
      if Graph.n sub >= 2 && Graph.m sub > 0 then
        checkb
          (Printf.sprintf "exact cluster conductance >= phi %.4f" d.Spectral.Expander_decomposition.phi)
          true
          (Spectral.Conductance.exact sub
          >= d.Spectral.Expander_decomposition.phi -. 1e-9))
    (Graph_ops.clusters g d.labels d.k)

let test_engine_grid () = ignore (check_cm_decomposition (Generators.grid 8 8) 0.3)

let test_engine_apollonian () =
  let _, stats =
    check_cm_decomposition (Generators.random_apollonian 150 ~seed:12) 0.25
  in
  ignore stats

let test_engine_barbell_splits () =
  let g = Generators.barbell 10 2 in
  let d, _ = Decomp_engine.decompose g ~epsilon:0.2 in
  checkb "cliques separated" true
    (d.Spectral.Expander_decomposition.labels.(0)
    <> d.Spectral.Expander_decomposition.labels.(Graph.n g - 1))

let test_engine_expander_stays_whole () =
  let g = Generators.complete 16 in
  let d, _ = Decomp_engine.decompose g ~epsilon:0.3 in
  checki "one cluster" 1 d.Spectral.Expander_decomposition.k

let test_engine_oracle_small_graphs () =
  List.iter
    (fun g -> check_against_exact_oracle g 0.3)
    [
      Generators.grid 4 6;
      Generators.cycle 20;
      Generators.barbell 8 2;
      Generators.random_apollonian 24 ~seed:13;
      Generators.random_tree 24 ~seed:14;
    ]

let test_engine_pool_parity () =
  let g = Generators.random_apollonian 120 ~seed:15 in
  let p1 = Parallel.Pool.create ~jobs:1 () in
  let p4 = Parallel.Pool.create ~jobs:4 () in
  let d1, s1 = Decomp_engine.decompose ~pool:p1 g ~epsilon:0.3 in
  let d4, s4 = Decomp_engine.decompose ~pool:p4 g ~epsilon:0.3 in
  let dseq, sseq = Decomp_engine.decompose g ~epsilon:0.3 in
  Alcotest.(check (array int))
    "labels identical across pool sizes"
    d1.Spectral.Expander_decomposition.labels
    d4.Spectral.Expander_decomposition.labels;
  Alcotest.(check (array int))
    "sequential agrees" d1.Spectral.Expander_decomposition.labels
    dseq.Spectral.Expander_decomposition.labels;
  checkb "stats identical" true (s1 = s4 && s1 = sseq)

let test_engine_validation () =
  Alcotest.check_raises "eps = 0"
    (Invalid_argument "Decomp_engine.decompose: need 0 < epsilon < 1")
    (fun () ->
      ignore (Decomp_engine.decompose (Generators.cycle 5) ~epsilon:0.))

(* Pins the whole record (labels, k, inter edges, thresholds by their
   exact bits, every witness field) and the work stats as one digest, so
   a change to the recursion that moves any of it fails here, not only
   jobs-1 = jobs-4. *)
let decomposition_digest (d : Spectral.Expander_decomposition.t)
    (s : Decomp_engine.stats) =
  let open Spectral.Expander_decomposition in
  let b = Buffer.create 4096 in
  let ints a =
    Array.iter (fun x -> Printf.bprintf b "%d," x) a;
    Buffer.add_char b '|'
  in
  ints d.labels;
  Printf.bprintf b "k=%d|" d.k;
  ints (Array.of_list d.inter_edges);
  Printf.bprintf b "%h %h %h|" d.epsilon d.phi d.tau;
  Array.iter
    (fun w ->
      ints (Array.of_list w.w_path);
      List.iter
        (fun (pairs, embeds, _) ->
          Array.iter (fun (x, y) -> Printf.bprintf b "%d-%d," x y) pairs;
          Array.iter ints embeds;
          Buffer.add_char b ';')
        w.w_matchings;
      Printf.bprintf b "%d %d %s|" w.w_congestion w.w_dilation w.w_source)
    d.witnesses;
  Printf.bprintf b "%d %d %d %d" s.Decomp_engine.games s.game_rounds
    s.flow_calls s.heuristic_cuts;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_engine_golden () =
  List.iter
    (fun (name, g, epsilon, expected) ->
      let d, s = Decomp_engine.decompose g ~epsilon in
      Alcotest.(check string) name expected (decomposition_digest d s))
    [
      ( "grid 64x64",
        Generators.grid 64 64,
        0.5,
        "c4bbfa71cc2b59bef5c5f1ae26ebc13e" );
      ( "barbell 10 2",
        Generators.barbell 10 2,
        0.2,
        "e9d89b1c3ebc476918b636a3a5f1c3d7" );
      ( "apollonian 300",
        Generators.random_apollonian 300 ~seed:12,
        0.25,
        "86bddb92dcfbbb54bf7611ea85adbe1e" );
      ( "barbell + 3 isolated",
        Graph_fixtures.disjoint_union (Generators.barbell 10 2) (Graph.empty 3),
        0.2,
        "8118f1c84da940a97ca5a492846d07e7" );
    ]

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let arb_connected_graph =
  QCheck.make
    ~print:(fun (n, seed, extra) ->
      Printf.sprintf "n=%d seed=%d extra=%d" n seed extra)
    QCheck.Gen.(
      map3
        (fun n seed extra -> (n, seed, extra))
        (int_range 4 10) (int_range 0 1000) (int_range 0 12))

let build_connected (n, seed, extra) =
  Generators.add_random_edges (Generators.random_tree n ~seed) extra ~seed

let prop_max_flow_min_cut =
  QCheck.Test.make ~name:"max flow equals brute-force min cut" ~count:80
    arb_connected_graph (fun input ->
      let g = build_connected input in
      let n = Graph.n g in
      let capacity e = 1 + (e mod 3) in
      let v, net, _ = max_flow_st ~capacity g ~s:0 ~t:(n - 1) in
      Net.feasible net && v = brute_min_cut g ~capacity ~s:0 ~t:(n - 1))

let prop_flow_conservation =
  QCheck.Test.make ~name:"routed flow conserves at interior vertices"
    ~count:80 arb_connected_graph (fun input ->
      let g = build_connected input in
      let n = Graph.n g in
      let v, net, _ = max_flow_st g ~s:0 ~t:(n - 1) in
      Net.divergence net 0 = v
      && Net.divergence net (n - 1) = -v
      && (let ok = ref true in
          for u = 1 to n - 2 do
            if Net.divergence net u <> 0 then ok := false
          done;
          !ok))

let prop_path_decomposition_total =
  QCheck.Test.make ~name:"path decomposition accounts for the full flow"
    ~count:80 arb_connected_graph (fun input ->
      let g = build_connected input in
      let n = Graph.n g in
      let v, net, _ = max_flow_st g ~s:0 ~t:(n - 1) in
      let dec = Path_decompose.decompose net in
      dec.Path_decompose.total = v
      && Array.for_all
           (fun vs -> vs.(0) = 0 && vs.(Array.length vs - 1) = n - 1)
           dec.Path_decompose.vertices)

let prop_bounded_height_certifies =
  QCheck.Test.make
    ~name:"a retired bounded run yields a valid level-cut certificate"
    ~count:80 arb_connected_graph (fun input ->
      let g = build_connected input in
      let n = Graph.n g in
      let net = unit_net g in
      let supply = Array.make n 0 in
      let sink_cap = Array.make n 0 in
      supply.(0) <- n;
      sink_cap.(n - 1) <- n;
      let limit = 3 in
      let outcome = Push_relabel.run net ~supply ~sink_cap ~limit in
      if Push_relabel.fully_routed outcome then true
      else
        match
          Push_relabel.level_cut g ~height:outcome.Push_relabel.height ~limit
        with
        | None -> false
        | Some (side, c) ->
            abs_float (Spectral.Conductance.of_cut g side -. c) < 1e-9)

let prop_game_verdict_sound =
  QCheck.Test.make
    ~name:"cut-matching verdicts agree with the exact conductance oracle"
    ~count:40 arb_connected_graph (fun input ->
      let g = build_connected input in
      let n = Graph.n g in
      let tau = 0.15 in
      match Cut_matching.run ~adaptive:false g ~tau ~seed:7 with
      | Cut_matching.Cut c, _ ->
          (* a reported cut must be a real cut of that conductance *)
          abs_float
            (Spectral.Conductance.of_cut g c.Cut_matching.side
            -. c.Cut_matching.conductance)
          < 1e-9
          && Array.exists Fun.id c.Cut_matching.side
          && not (Array.for_all Fun.id c.Cut_matching.side)
      | Cut_matching.Expander w, _ ->
          (* an accepted cluster really has conductance >= tau^2 / 4 *)
          List.for_all (matching_is_partial_perfect ~n) w.Cut_matching.matchings
          && Spectral.Conductance.exact g >= (tau *. tau /. 4.) -. 1e-9)

let prop_engine_budget_and_parity =
  QCheck.Test.make
    ~name:"flow engine respects the edge budget at every pool size" ~count:30
    arb_connected_graph (fun input ->
      let g = build_connected input in
      let d, _ = Decomp_engine.decompose g ~epsilon:0.3 in
      let pool = Parallel.Pool.create ~jobs:4 () in
      let d4, _ = Decomp_engine.decompose ~pool g ~epsilon:0.3 in
      d.Spectral.Expander_decomposition.labels
      = d4.Spectral.Expander_decomposition.labels
      && float_of_int
           (List.length d.Spectral.Expander_decomposition.inter_edges)
         <= (0.3 *. float_of_int (Graph.m g)) +. 1e-9)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_max_flow_min_cut;
      prop_flow_conservation;
      prop_path_decomposition_total;
      prop_bounded_height_certifies;
      prop_game_verdict_sound;
      prop_engine_budget_and_parity;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "flow"
    [
      ( "net",
        [
          tc "twin-arc structure" test_net_structure;
          tc "capacities and reset" test_net_capacity_and_reset;
          tc "rejects negative capacity" test_net_rejects_negative_capacity;
        ] );
      ( "max_flow",
        [
          tc "cycle" test_max_flow_cycle;
          tc "path" test_max_flow_path;
          tc "complete graph" test_max_flow_complete;
          tc "barbell bridge" test_max_flow_barbell_bridge;
          tc "weighted edges" test_max_flow_weighted;
          tc "validation" test_max_flow_validation;
          tc "equals brute-force min cut" test_max_flow_equals_min_cut_fixed;
        ] );
      ( "bounded_height",
        [
          tc "retirement at the cap" test_bounded_height_retires;
          tc "no cut from flat heights" test_level_cut_none_when_flat;
          tc "validation" test_run_validation;
        ] );
      ( "path_decompose",
        [
          tc "s-t flow" test_decompose_st_flow;
          tc "does not mutate the net" test_decompose_leaves_net_intact;
          tc "zero flow" test_decompose_zero_flow;
        ] );
      ( "cut_heuristics",
        [
          tc "component cut" test_component_cut;
          tc "finds the barbell bridge" test_cheapest_finds_barbell;
          tc "rejects an expander" test_cheapest_rejects_expander;
        ] );
      ( "cut_matching",
        [
          tc "accepts K16" test_game_accepts_complete;
          tc "cuts the barbell" test_game_cuts_barbell;
          tc "trivial clusters accepted" test_game_trivial_accepts;
          tc "deterministic" test_game_deterministic;
        ] );
      ( "decomp_engine",
        [
          tc "grid" test_engine_grid;
          tc "apollonian" test_engine_apollonian;
          tc "barbell splits at bridge" test_engine_barbell_splits;
          tc "expander stays whole" test_engine_expander_stays_whole;
          tc "exact oracle on small graphs" test_engine_oracle_small_graphs;
          tc "pool parity" test_engine_pool_parity;
          tc "epsilon validation" test_engine_validation;
          tc "golden output digest" test_engine_golden;
        ] );
      ("properties", qcheck_cases);
    ]
