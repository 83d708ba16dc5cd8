open Sparse_graph
open Core

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let test_pipeline_simulated_small () =
  let g = Generators.random_apollonian 40 ~seed:1 in
  let p = Pipeline.prepare g ~epsilon:0.3 ~seed:1 in
  (* every vertex belongs to exactly one cluster; leaders are members *)
  let seen = Array.make (Graph.n g) 0 in
  Array.iter
    (fun (cl : Pipeline.cluster) ->
      checkb "leader is member" true (List.mem cl.leader cl.members);
      List.iter (fun v -> seen.(v) <- seen.(v) + 1) cl.members;
      (* leader has the maximum intra-cluster degree *)
      let ld = Graph.degree cl.sub cl.mapping.to_sub.(cl.leader) in
      List.iter
        (fun v ->
          checkb "leader degree maximal" true
            (Graph.degree cl.sub cl.mapping.to_sub.(v) <= ld))
        cl.members)
    p.clusters;
  Array.iter (fun c -> check "each vertex once" 1 c) seen;
  checkb "simulated stats present" true (p.report.election_stats <> None);
  checkb "positive simulated rounds" true (p.report.simulated_rounds > 0);
  checkb "charged construction positive" true
    (p.report.charged_construction_rounds > 0)

let test_pipeline_charged_matches_simulated_clusters () =
  let g = Generators.grid 6 6 in
  let ps = Pipeline.prepare ~mode:Simulated g ~epsilon:0.3 ~seed:2 in
  let pc = Pipeline.prepare ~mode:Charged g ~epsilon:0.3 ~seed:2 in
  Alcotest.(check (array int)) "same leaders" ps.leader_of pc.leader_of;
  check "same cluster count" ps.report.k pc.report.k;
  checkb "charged has no sim stats" true (pc.report.election_stats = None)

let test_pipeline_inter_fraction () =
  let g = Generators.random_apollonian 100 ~seed:3 in
  let p = Pipeline.prepare ~mode:Charged g ~epsilon:0.25 ~seed:3 in
  checkb "within budget" true (p.report.inter_fraction <= 0.25 +. 1e-9)

let test_pipeline_solve_locally () =
  let g = Generators.grid 5 5 in
  let p = Pipeline.prepare ~mode:Charged g ~epsilon:0.4 ~seed:4 in
  let sizes = Pipeline.solve_locally p (fun cl -> List.length cl.members) in
  check "sizes sum to n" 25 (Array.fold_left ( + ) 0 sizes)

(* ------------------------------------------------------------------ *)
(* MaxIS application (Theorem 1.2)                                     *)
(* ------------------------------------------------------------------ *)

let test_mis_app_ratio () =
  List.iter
    (fun (name, g) ->
      let r = App_mis.run ~mode:Charged g ~epsilon:0.4 ~seed:6 in
      checkb (name ^ " independent") true
        (Optimize.Mis.is_independent g r.independent_set);
      let opt = Optimize.Mis.exact_size g in
      let ratio = App_mis.ratio r ~opt in
      checkb
        (Printf.sprintf "%s ratio %.3f >= 0.6" name ratio)
        true (ratio >= 0.6))
    [
      ("grid", Generators.grid 7 7);
      ("apollonian", Generators.random_apollonian 60 ~seed:7);
      ("outerplanar", Generators.random_maximal_outerplanar 50 ~seed:8);
      ("tree", Generators.random_tree 50 ~seed:9);
    ]

let test_mis_app_simulated_consistent () =
  let g = Generators.random_apollonian 35 ~seed:10 in
  let rs = App_mis.run ~mode:Simulated g ~epsilon:0.4 ~seed:10 in
  let rc = App_mis.run ~mode:Charged g ~epsilon:0.4 ~seed:10 in
  check "same result both modes" rc.size rs.size

let test_mis_app_epsilon_improves () =
  (* smaller epsilon must not hurt on average; check a single seed pair *)
  let g = Generators.random_apollonian 80 ~seed:11 in
  let loose = App_mis.run ~mode:Charged g ~epsilon:0.8 ~seed:11 in
  let tight = App_mis.run ~mode:Charged g ~epsilon:0.1 ~seed:11 in
  let opt = Optimize.Mis.exact_size g in
  checkb "tight at least as good" true
    (App_mis.ratio tight ~opt >= App_mis.ratio loose ~opt -. 0.1)

let test_mis_app_weighted () =
  for seed = 0 to 3 do
    let g =
      Generators.add_random_edges (Generators.random_tree 14 ~seed) 8 ~seed
    in
    let st = Random.State.make [| seed; 4099 |] in
    let weights = Array.init (Graph.n g) (fun _ -> 1 + Random.State.int st 25) in
    let r = App_mis.run_weighted ~mode:Charged g ~weights ~epsilon:0.3 ~seed in
    checkb "independent" true
      (Optimize.Mis.is_independent g r.w_independent_set);
    let opt = Optimize.Mis.brute_force_weighted g weights in
    checkb
      (Printf.sprintf "seed %d weighted ratio %d/%d" seed r.total_weight opt)
      true
      (float_of_int r.total_weight >= 0.6 *. float_of_int opt)
  done

let test_construction_charges () =
  let c1 = Pipeline.construction_charge ~n:1024 ~epsilon:0.5 in
  let c2 = Pipeline.construction_charge ~n:4096 ~epsilon:0.5 in
  checkb "monotone in n" true (c2 > c1);
  let d1 = Pipeline.construction_charge_deterministic ~n:1024 ~epsilon:0.5 in
  let d2 = Pipeline.construction_charge_deterministic ~n:4096 ~epsilon:0.5 in
  checkb "deterministic monotone" true (d2 > d1);
  (* 2^sqrt(log n log log n) is superpolylog: must dominate eventually *)
  let big = Pipeline.construction_charge_deterministic ~n:(1 lsl 30) ~epsilon:0.5 in
  let poly = Pipeline.construction_charge ~n:(1 lsl 30) ~epsilon:0.5 in
  checkb "subexponential above polylog at large n" true (big > poly / 30)

(* ------------------------------------------------------------------ *)
(* Matching application (Theorems 3.2 and 1.1)                         *)
(* ------------------------------------------------------------------ *)

let test_mcm_planar_ratio () =
  List.iter
    (fun (name, g) ->
      let r = App_matching.mcm_planar ~mode:Charged g ~epsilon:0.3 ~seed:12 in
      checkb (name ^ " valid") true (Matching.Blossom.is_valid_matching g r.mate);
      let opt =
        Matching.Blossom.size (Matching.Blossom.max_cardinality_matching g)
      in
      let ratio = if opt = 0 then 1. else float_of_int r.size /. float_of_int opt in
      checkb
        (Printf.sprintf "%s mcm ratio %.3f >= 0.7" name ratio)
        true (ratio >= 0.7))
    [
      ("grid", Generators.grid 8 8);
      ("apollonian", Generators.random_apollonian 70 ~seed:13);
      ("planar+stars",
       Generators.attach_stars (Generators.random_planar 50 0.6 ~seed:14)
         ~stars:5 ~leaves:4 ~seed:14);
    ]

let test_mcm_planar_simulated () =
  let g = Generators.random_apollonian 30 ~seed:15 in
  let r = App_matching.mcm_planar ~mode:Simulated g ~epsilon:0.4 ~seed:15 in
  checkb "valid" true (Matching.Blossom.is_valid_matching g r.mate)

let test_mwm_ratio_small () =
  (* measured ratio against the exact DP optimum on small graphs *)
  for seed = 0 to 4 do
    let g =
      Generators.add_random_edges (Generators.random_tree 14 ~seed) 8 ~seed
    in
    let w = Weights.random g ~max_w:40 ~seed in
    let r = App_matching.mwm ~mode:Charged g w ~epsilon:0.25 ~seed in
    checkb "valid" true (Matching.Blossom.is_valid_matching g r.mate);
    let opt = Matching.Exact_small.max_weight_matching g w in
    let ratio =
      if opt = 0 then 1. else float_of_int r.weight /. float_of_int opt
    in
    checkb
      (Printf.sprintf "seed %d mwm ratio %.3f >= 0.6" seed ratio)
      true (ratio >= 0.6)
  done

let test_mwm_beats_greedy_often () =
  let wins = ref 0 and total = ref 0 in
  for seed = 0 to 5 do
    let g = Generators.random_apollonian 60 ~seed in
    let w = Weights.random g ~max_w:60 ~seed in
    let r = App_matching.mwm ~mode:Charged g w ~epsilon:0.2 ~seed in
    let greedy =
      Matching.Approx.weight g w (Matching.Approx.greedy g w)
    in
    incr total;
    if r.weight >= greedy then incr wins
  done;
  checkb
    (Printf.sprintf "framework >= greedy on %d/%d" !wins !total)
    true
    (2 * !wins >= !total)

(* ------------------------------------------------------------------ *)
(* Correlation clustering application (Theorem 1.3)                    *)
(* ------------------------------------------------------------------ *)

let test_correlation_app_bound () =
  List.iter
    (fun seed ->
      let g = Generators.random_apollonian 50 ~seed in
      let labels = Generators.random_sign_labels g ~frac_pos:0.5 ~seed in
      let r = App_correlation.run ~mode:Charged g ~labels ~epsilon:0.3 ~seed in
      (* gamma >= m/2 always; the framework must achieve at least
         (1 - eps) * m/2 up to heuristic slack; check >= 0.4 m *)
      checkb
        (Printf.sprintf "seed %d score %d vs m %d" seed r.score (Graph.m g))
        true
        (5 * r.score >= 2 * Graph.m g))
    [ 0; 1; 2 ]

let test_correlation_app_planted () =
  (* planted communities, zero noise: the framework should score near m *)
  let g = Generators.grid 6 6 in
  let communities = Array.init 36 (fun v -> (v mod 6) / 3) in
  let labels = Generators.planted_sign_labels g communities ~noise:0. ~seed:16 in
  let r = App_correlation.run ~mode:Charged g ~labels ~epsilon:0.2 ~seed:16 in
  checkb
    (Printf.sprintf "score %d >= 0.85 m (%d)" r.score (Graph.m g))
    true
    (float_of_int r.score >= 0.85 *. float_of_int (Graph.m g))

let test_correlation_app_simulated () =
  let g = Generators.random_apollonian 25 ~seed:17 in
  let labels = Generators.random_sign_labels g ~frac_pos:0.6 ~seed:17 in
  let r = App_correlation.run ~mode:Simulated g ~labels ~epsilon:0.4 ~seed:17 in
  checkb "some positive score" true (r.score > 0)

(* ------------------------------------------------------------------ *)
(* Property testing application (Theorem 1.4)                          *)
(* ------------------------------------------------------------------ *)

let test_property_app_accepts_members () =
  (* one-sided error: members are always accepted *)
  List.iter
    (fun (pname, prop, g) ->
      let v = App_property.run ~mode:Charged g prop ~epsilon:0.2 ~seed:18 in
      checkb (pname ^ " accepted") true v.accepted)
    [
      ("planar/apollonian", Minorfree.Properties.planar,
       Generators.random_apollonian 60 ~seed:19);
      ("planar/grid", Minorfree.Properties.planar, Generators.grid 7 7);
      ("forest/tree", Minorfree.Properties.forest,
       Generators.random_tree 60 ~seed:20);
      ("outerplanar/outerplanar", Minorfree.Properties.outerplanar,
       Generators.random_maximal_outerplanar 40 ~seed:21);
      ("series-parallel/2-tree", Minorfree.Properties.series_parallel,
       Generators.random_k_tree 40 2 ~seed:22);
    ]

let test_property_app_rejects_far () =
  (* epsilon-far inputs must be rejected *)
  let eps = 0.15 in
  (* far from planar: plant many K5s on a grid *)
  let base = Generators.grid 10 10 in
  let count = 1 + int_of_float (eps *. float_of_int (Graph.m base)) in
  let count = min count (Graph.n base / 5) in
  let far_planar = Generators.plant_k5s base count ~seed:23 in
  checkb "construction is actually far" true
    (Minorfree.Properties.far_from ~epsilon:eps far_planar
       Minorfree.Properties.planar
    || count >= 20);
  let v =
    App_property.run ~mode:Charged far_planar Minorfree.Properties.planar
      ~epsilon:eps ~seed:23
  in
  checkb "far-from-planar rejected" true (not v.accepted);
  (* far from forest: a dense planar graph *)
  let cyclic = Generators.random_apollonian 60 ~seed:24 in
  checkb "far from forest" true
    (Minorfree.Properties.far_from ~epsilon:0.3 cyclic
       Minorfree.Properties.forest);
  let v2 =
    App_property.run ~mode:Charged cyclic Minorfree.Properties.forest
      ~epsilon:0.3 ~seed:24
  in
  checkb "far-from-forest rejected" true (not v2.accepted)

let test_property_app_simulated_accepts () =
  let g = Generators.random_apollonian 30 ~seed:25 in
  let v =
    App_property.run ~mode:Simulated g Minorfree.Properties.planar
      ~epsilon:0.3 ~seed:25
  in
  checkb "accepted under simulation" true v.accepted;
  (* the Section 2.3 diameter check ran and found no failure *)
  Alcotest.(check (option int)) "no diameter marks" (Some 0) v.diameter_marks

(* ------------------------------------------------------------------ *)
(* Covering applications (extensions)                                  *)
(* ------------------------------------------------------------------ *)

let test_covering_apps () =
  List.iter
    (fun (name, g, seed) ->
      let ds = App_covering.dominating_set ~mode:Charged g ~epsilon:0.3 ~seed in
      checkb (name ^ " dominating valid") true
        (Optimize.Dominating.is_dominating g ds.solution);
      let vc = App_covering.vertex_cover ~mode:Charged g ~epsilon:0.3 ~seed in
      checkb (name ^ " cover valid") true
        (Optimize.Vertex_cover.is_cover g vc.solution);
      if Graph.n g <= 80 then begin
        let ds_opt = Optimize.Dominating.exact_size g in
        checkb
          (Printf.sprintf "%s dominating %d within 1.5x of %d" name ds.size ds_opt)
          true
          (2 * ds.size <= 3 * ds_opt);
        let vc_opt = Optimize.Vertex_cover.exact_size g in
        checkb
          (Printf.sprintf "%s cover %d within 1.5x of %d" name vc.size vc_opt)
          true
          (2 * vc.size <= 3 * vc_opt)
      end)
    [
      ("grid", Generators.grid 7 7, 50);
      ("tree", Generators.random_tree 60 ~seed:51, 51);
      ("blob-chain", Generators.blob_chain ~blobs:5 ~blob_size:12 ~seed:52, 52);
    ]

(* ------------------------------------------------------------------ *)
(* LDD application (Theorem 1.5)                                       *)
(* ------------------------------------------------------------------ *)

let test_ldd_app_budget_and_diameter () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun eps ->
          let r = App_ldd.run ~mode:Charged g ~epsilon:eps ~seed:26 in
          checkb
            (Printf.sprintf "%s eps=%.2f cut %.3f within budget" name eps
               r.cut_fraction)
            true
            (r.cut_fraction <= eps +. 1e-9);
          checkb "finite diameter" true (r.max_diameter < max_int);
          (* Theorem 1.5 shape: D = O(1/eps); generous constant 40 *)
          checkb
            (Printf.sprintf "%s diameter %d = O(1/eps)" name r.max_diameter)
            true
            (float_of_int r.max_diameter <= 40. /. eps))
        [ 0.5; 0.25 ])
    [
      ("grid", Generators.grid 10 10);
      ("apollonian", Generators.random_apollonian 120 ~seed:27);
      ("tree", Generators.random_tree 100 ~seed:28);
    ]

let test_ldd_app_diameter_shrinks () =
  let g = Generators.grid 14 14 in
  let d eps = (App_ldd.run ~mode:Charged g ~epsilon:eps ~seed:29).max_diameter in
  checkb "monotone-ish in epsilon" true (d 1.0 <= d 0.08 + 2)

(* ------------------------------------------------------------------ *)
(* QCheck: end-to-end invariants                                       *)
(* ------------------------------------------------------------------ *)

let arb_planar =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
    QCheck.Gen.(pair (int_range 8 60) (int_range 0 5_000))

let prop_mis_always_independent =
  QCheck.Test.make ~name:"framework MIS output is always independent"
    ~count:40 arb_planar (fun (n, seed) ->
      let g = Generators.random_planar n 0.7 ~seed in
      let r = App_mis.run ~mode:Charged g ~epsilon:0.3 ~seed in
      Optimize.Mis.is_independent g r.independent_set)

let prop_mcm_always_valid =
  QCheck.Test.make ~name:"framework MCM output is always a matching"
    ~count:40 arb_planar (fun (n, seed) ->
      let g = Generators.random_planar n 0.6 ~seed in
      let r = App_matching.mcm_planar ~mode:Charged g ~epsilon:0.3 ~seed in
      Matching.Blossom.is_valid_matching g r.mate)

let prop_property_one_sided =
  QCheck.Test.make ~name:"property tester accepts every planar input"
    ~count:40 arb_planar (fun (n, seed) ->
      let g = Generators.random_apollonian n ~seed in
      (App_property.run ~mode:Charged g Minorfree.Properties.planar
         ~epsilon:0.25 ~seed)
        .accepted)

let prop_ldd_budget =
  QCheck.Test.make ~name:"LDD app stays within the cut budget" ~count:30
    arb_planar (fun (n, seed) ->
      let g = Generators.random_apollonian n ~seed in
      let r = App_ldd.run ~mode:Charged g ~epsilon:0.4 ~seed in
      r.cut_fraction <= 0.4 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Golden pins on everything computed from cluster geometry            *)
(* ------------------------------------------------------------------ *)

(* Each digest covers the outputs of one consumer of "labels -> clusters"
   (inter edges, per-cluster subgraphs, component splits, the max cluster
   diameter), so moving where that geometry is computed cannot silently
   move a result. *)
let digest_of f =
  let b = Buffer.create 4096 in
  f b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let add_ints b a =
  Array.iter (fun x -> Printf.bprintf b "%d," x) a;
  Buffer.add_char b '|'

let golden_graphs =
  [
    ("grid 32x32", Generators.grid 32 32);
    ("apollonian 512", Generators.random_apollonian 512 ~seed:12);
  ]

let prepare_digest (p : Pipeline.t) =
  digest_of (fun b ->
      let r = p.report in
      Printf.bprintf b "k=%d inter=%d b=%d phi=%h tau=%h frac=%h|" r.k
        r.inter_edges r.diameter_bound r.phi p.decomposition.tau
        r.inter_fraction;
      add_ints b p.leader_of;
      Array.iter
        (fun (cl : Pipeline.cluster) ->
          Printf.bprintf b "%d:" cl.leader;
          add_ints b (Array.of_list cl.members))
        p.clusters)

(* epsilon 0.8 splits the grid into several clusters (6 spectral, 3
   cut-matching); at 0.5 both graphs stay a single cluster *)
let test_golden_prepare () =
  let expected =
    [
      "f1ae4a648d79c6f47ac44b9e2ec684dd";
      "a94970a8d7755f5a3f0eb40acb6f1ad7";
      "5370a8c9cb5e57e5080de89b756e5901";
      "5370a8c9cb5e57e5080de89b756e5901";
    ]
  in
  let got =
    List.concat_map
      (fun (gname, g) ->
        List.map
          (fun engine ->
            ( Printf.sprintf "%s %s" gname (Pipeline.engine_name engine),
              prepare_digest
                (Pipeline.prepare ~mode:Charged ~engine g ~epsilon:0.8
                   ~seed:3) ))
          [ Pipeline.Spectral_engine; Pipeline.Cut_matching_engine ])
      golden_graphs
  in
  List.iter2
    (fun (name, d) e -> Alcotest.(check string) name e d)
    got expected

let golden_demands g =
  let st = Random.State.make [| 17; 0x5eed |] in
  let n = Graph.n g in
  Array.init 3000 (fun i ->
      {
        Route.Service.src = Random.State.int st n;
        dst = (if i mod 4 = 0 then n / 2 else Random.State.int st n);
        weight = 1 + Random.State.int st 3;
      })

let test_golden_serve () =
  let expected =
    [ "f86cab035d1c44e14e129e947cb4b9e3"; "cee4ecc6dcc0c8692db4bdadf94a10ff" ]
  in
  let got =
    List.map
      (fun (gname, g) ->
        let p =
          Pipeline.prepare ~mode:Charged ~engine:Cut_matching_engine g
            ~epsilon:0.8 ~seed:3
        in
        let svc = Pipeline.routing_service p in
        let ds = golden_demands g in
        ( gname,
          digest_of (fun b ->
              List.iter
                (fun policy ->
                  let s = Route.Service.serve ~policy svc ds in
                  Printf.bprintf b "%d %d %d %d %d %d %d %d %d|"
                    s.demands s.delivered s.failed s.fallbacks s.rounds_p50
                    s.rounds_p99 s.rounds_max s.congestion_max
                    s.congestion_total;
                  Array.iter (add_ints b) (Route.Service.plan ~policy svc ds))
                [ Route.Hierarchy.Round_robin; Route.Hierarchy.Least_loaded ])
        ))
      golden_graphs
  in
  List.iter2
    (fun (name, d) e -> Alcotest.(check string) name e d)
    got expected

(* grid 24x24 at epsilon 0.8 decomposes into several clusters, and 40 000
   demands span three serve epochs of 16 384: every epoch after the first
   routes from the portal cursors and entry probes that merge_router
   folded back, so this digest reads the fold that the one-epoch golden
   above cannot reach *)
let multi_epoch_input ?pool () =
  let g = Generators.grid 24 24 in
  let p = Pipeline.prepare ~mode:Charged g ~epsilon:0.8 ~seed:3 in
  checkb "decomposition has k > 1" true (p.report.k > 1);
  let svc = Pipeline.routing_service ?pool p in
  let st = Random.State.make [| 23; 0x5eed |] in
  let n = Graph.n g in
  let ds =
    Array.init 40_000 (fun i ->
        {
          Route.Service.src = Random.State.int st n;
          dst = (if i mod 4 = 0 then n / 2 else Random.State.int st n);
          weight = 1 + Random.State.int st 3;
        })
  in
  (svc, ds)

let test_golden_serve_multi_epoch () =
  let svc, ds = multi_epoch_input () in
  let got =
    digest_of (fun b ->
        List.iter
          (fun policy ->
            let s = Route.Service.serve ~policy svc ds in
            Printf.bprintf b "%d %d %d %d %d %d %d %d %d|" s.demands
              s.delivered s.failed s.fallbacks s.rounds_p50 s.rounds_p99
              s.rounds_max s.congestion_max s.congestion_total;
            add_ints b (Route.Service.congestion svc);
            Array.iter (add_ints b) (Route.Service.plan ~policy svc ds))
          [ Route.Hierarchy.Round_robin; Route.Hierarchy.Least_loaded ])
  in
  Alcotest.(check string) "grid 24x24, three epochs"
    "883fc9f9b1b8a7c405cdaf3a4eb94a83" got

(* the route.hops_* counters that [Service.summarize] emits, by leg kind:
   direct intra edge, shortcut expansion, portal, fallback *)
let hop_counts svc ds policy =
  Obs.reset ();
  Obs.enable ();
  ignore (Route.Service.serve ~policy svc ds);
  let tree = Obs.snapshot_tree () in
  Obs.disable ();
  let sums, _ = Obs.Agg.totals tree in
  List.map
    (fun kind ->
      Option.value ~default:0
        (Obs.Agg.SMap.find_opt ("route.hops_" ^ kind) sums))
    [ "direct"; "shortcut"; "portal"; "fallback" ]

(* on the multi-epoch inputs, the per-kind hop counts add up to the plans'
   total length and are the same at pool sizes 1 and 4 *)
let test_hop_attribution () =
  let svc1, ds = multi_epoch_input ~pool:(Parallel.Pool.create ~jobs:1 ()) () in
  let svc4, _ = multi_epoch_input ~pool:(Parallel.Pool.create ~jobs:4 ()) () in
  List.iter
    (fun policy ->
      let counts = hop_counts svc1 ds policy in
      let plans = Route.Service.plan ~policy svc1 ds in
      let total =
        Array.fold_left (fun acc p -> acc + Array.length p - 1) 0 plans
      in
      check "hops by kind sum to the plan lengths" total
        (List.fold_left ( + ) 0 counts);
      checkb "routes cross portals" true (List.nth counts 2 > 0);
      Alcotest.(check (list int)) "same counts at jobs 1 and 4" counts
        (hop_counts svc4 ds policy))
    [ Route.Hierarchy.Round_robin; Route.Hierarchy.Least_loaded ]

let test_golden_distributed_verify () =
  let got =
    digest_of (fun b ->
        List.iter
          (fun (g, epsilon) ->
            let dd = Distr.Distributed_decomposition.decompose g ~epsilon in
            let inter_ok, worst = Distr.Distributed_decomposition.verify g dd in
            add_ints b dd.labels;
            Printf.bprintf b "%b %h|" inter_ok worst)
          [
            (Generators.path 64, 0.3);
            (Generators.random_tree 128 ~seed:35, 0.3);
            (Generators.blob_chain ~blobs:8 ~blob_size:12 ~seed:36, 0.4);
            (Generators.grid 10 10, 0.3);
            (Generators.random_apollonian 96 ~seed:37, 0.3);
            (Generators.barbell 10 2, 0.2);
          ])
  in
  Alcotest.(check string) "E12 inputs" "d6786d3b41133b260fa2c3e84ddd3785" got

let test_golden_max_cluster_diameter () =
  let got =
    List.concat_map
      (fun (_, g) ->
        let kpr = Decomp.Kpr.chop g ~width:4 ~levels:2 ~seed:14 in
        let mpx = Decomp.Ldd.mpx g ~beta:0.25 ~seed:13 in
        [
          kpr.Decomp.Partition.k;
          Decomp.Partition.max_cluster_diameter g kpr;
          mpx.Decomp.Partition.k;
          Decomp.Partition.max_cluster_diameter g mpx;
        ])
      golden_graphs
  in
  Alcotest.(check (list int)) "kpr and mpx" [ 151; 8; 32; 31; 55; 6; 1; 7 ] got

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_mis_always_independent;
      prop_mcm_always_valid;
      prop_property_one_sided;
      prop_ldd_budget;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "core"
    [
      ( "pipeline",
        [
          tc "simulated end to end" test_pipeline_simulated_small;
          tc "charged matches simulated" test_pipeline_charged_matches_simulated_clusters;
          tc "inter-cluster budget" test_pipeline_inter_fraction;
          tc "solve locally" test_pipeline_solve_locally;
        ] );
      ( "geometry golden",
        [
          tc "prepare report, leaders, members" test_golden_prepare;
          tc "service summaries and plans" test_golden_serve;
          tc "multi-epoch serve" test_golden_serve_multi_epoch;
          tc "hops by leg kind" test_hop_attribution;
          tc "distributed verify" test_golden_distributed_verify;
          tc "max cluster diameter" test_golden_max_cluster_diameter;
        ] );
      ( "app_mis",
        [
          tc "ratio across families" test_mis_app_ratio;
          tc "simulated = charged" test_mis_app_simulated_consistent;
          tc "epsilon sensitivity" test_mis_app_epsilon_improves;
          tc "weighted extension" test_mis_app_weighted;
          tc "construction charges" test_construction_charges;
        ] );
      ( "app_matching",
        [
          tc "planar MCM ratio" test_mcm_planar_ratio;
          tc "planar MCM simulated" test_mcm_planar_simulated;
          tc "MWM ratio vs exact" test_mwm_ratio_small;
          tc "MWM vs greedy" test_mwm_beats_greedy_often;
        ] );
      ( "app_correlation",
        [
          tc "trivial bound" test_correlation_app_bound;
          tc "planted communities" test_correlation_app_planted;
          tc "simulated" test_correlation_app_simulated;
        ] );
      ( "app_property",
        [
          tc "accepts members" test_property_app_accepts_members;
          tc "rejects far inputs" test_property_app_rejects_far;
          tc "simulated accept" test_property_app_simulated_accepts;
        ] );
      ( "app_covering", [ tc "dominating set and vertex cover" test_covering_apps ] );
      ( "app_ldd",
        [
          tc "budget and diameter" test_ldd_app_budget_and_diameter;
          tc "diameter vs epsilon" test_ldd_app_diameter_shrinks;
        ] );
      ("qcheck", qcheck_cases);
    ]
