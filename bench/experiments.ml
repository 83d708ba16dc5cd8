(* Experiments E1-E9: one printed table per theorem-level claim of the paper.
   See DESIGN.md section 3 for the experiment index and EXPERIMENTS.md for
   recorded paper-vs-measured results. *)

open Sparse_graph
open Tables

let charged = Core.Pipeline.Charged

(* Worker pool for the grid points inside each experiment; bench/main.ml
   sets it from --jobs / EXPANDER_JOBS. *)
let pool = ref Parallel.Pool.sequential

(* [grid tasks f] computes each independent grid point on the pool and
   concatenates the returned row groups in task order, so every table is
   byte-identical to a sequential run at any --jobs value. *)
let grid tasks f = List.concat (Parallel.Pool.map_list !pool f tasks)

let cartesian xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

(* ------------------------------------------------------------------ *)
(* E1 - Theorem 1.2: (1 - eps)-approximate MaxIS                        *)
(* ------------------------------------------------------------------ *)

let mis_reference g =
  (* exact optimum when feasible; otherwise the matching upper bound
     alpha <= n - mu(G) *)
  if Graph.n g <= 400 then (Optimize.Mis.exact_size g, "exact")
  else begin
    let mu = Matching.Blossom.size (Matching.Blossom.max_cardinality_matching g) in
    (Graph.n g - mu, "n-mu UB")
  end

let e1 () =
  note "\n### E1 (Theorem 1.2): (1-eps)-approximate maximum independent set\n";
  note "claim: ratio >= 1 - eps on H-minor-free networks, poly(log n, 1/eps) rounds\n";
  let rows =
    grid
      (cartesian (Workloads.families ~seed:11) [ 100; 256 ])
      (fun ((fname, gen), n) ->
        let g = gen n in
        let opt, kind = mis_reference g in
        List.map
          (fun eps ->
            let r =
              Core.App_mis.run ~mode:charged ~exact_limit:400 g ~epsilon:eps
                ~seed:1
            in
            let p = r.pipeline.report in
            [
              fname; i (Graph.n g); f2 eps; i p.k; pct p.inter_fraction;
              i r.size;
              Printf.sprintf "%d (%s)" opt kind;
              f3 (float_of_int r.size /. float_of_int opt);
              f3 (1. -. eps);
            ])
          [ 0.5; 0.25; 0.1 ])
  in
  print_table ~title:"E1: MaxIS approximation"
    ~header:
      [ "family"; "n"; "eps"; "k"; "inter"; "size"; "reference"; "ratio";
        "target" ]
    rows

(* ------------------------------------------------------------------ *)
(* E2 - Theorem 3.2: (1 - eps)-approximate MCM on planar graphs         *)
(* ------------------------------------------------------------------ *)

let e2 () =
  note "\n### E2 (Theorem 3.2): (1-eps)-approximate planar maximum matching\n";
  note "claim: preprocessing (Lemma 3.1) makes OPT = Omega(n); union of per-cluster\n";
  note "blossom solutions achieves 1 - eps; ablation: preprocessing off\n";
  let instance name g = (name, g) in
  let instances =
    [
      instance "grid" (Workloads.grid_of 256);
      instance "apollonian" (Generators.random_apollonian 256 ~seed:3);
      instance "planar+stars"
        (Generators.attach_double_stars
           (Generators.attach_stars
              (Generators.random_planar 180 0.65 ~seed:4)
              ~stars:12 ~leaves:6 ~seed:4)
           ~hubs:6 ~spokes:5 ~seed:4);
      instance "blob-chain"
        (Generators.blob_chain ~blobs:24 ~blob_size:13 ~seed:4);
      instance "tree" (Generators.random_tree 256 ~seed:4);
    ]
  in
  (* ablation: same pipeline without the Lemma 3.1 preprocessing *)
  let mcm_no_preprocess g eps seed =
    let pipeline = Core.Pipeline.prepare ~mode:charged g ~epsilon:(0.25 *. eps) ~seed in
    let n = Graph.n g in
    let mate = Array.make n (-1) in
    Array.iter
      (fun (cl : Core.Pipeline.cluster) ->
        let local = Matching.Blossom.max_cardinality_matching cl.sub in
        Array.iteri
          (fun v m ->
            if m > v then begin
              let ov = cl.mapping.to_orig.(v) and om = cl.mapping.to_orig.(m) in
              mate.(ov) <- om;
              mate.(om) <- ov
            end)
          local)
      pipeline.clusters;
    Array.fold_left (fun acc m -> if m >= 0 then acc + 1 else acc) 0 mate / 2
  in
  let rows =
    grid instances (fun (name, g) ->
        let opt =
          Matching.Blossom.size (Matching.Blossom.max_cardinality_matching g)
        in
        List.map
          (fun eps ->
            let r = Core.App_matching.mcm_planar ~mode:charged g ~epsilon:eps ~seed:5 in
            let without = mcm_no_preprocess g eps 5 in
            [
              name; i (Graph.n g); f2 eps; i opt; i r.size;
              f3 (float_of_int r.size /. float_of_int (max 1 opt));
              f3 (1. -. eps);
              i without;
              f3 (float_of_int without /. float_of_int (max 1 opt));
            ])
          [ 0.4; 0.2; 0.1 ])
  in
  print_table ~title:"E2: planar MCM (with preprocessing ablation)"
    ~header:
      [ "graph"; "n"; "eps"; "opt"; "size"; "ratio"; "target"; "no-prep";
        "no-prep ratio" ]
    rows

(* ------------------------------------------------------------------ *)
(* E3 - Theorem 1.1: (1 - eps)-approximate MWM                          *)
(* ------------------------------------------------------------------ *)

let e3 () =
  note "\n### E3 (Theorem 1.1): (1-eps)-approximate maximum weight matching\n";
  note "claim: the scaling pipeline beats the 1/2-approx baselines and approaches\n";
  note "the optimum; exact ratios are measured on subset-DP-sized instances\n";
  (* small instances: exact ratio *)
  let small_rows =
    grid [ 0; 1; 2 ] (fun seed ->
        let g =
          Generators.add_random_edges (Generators.random_tree 14 ~seed) 9 ~seed
        in
        let w = Weights.random g ~max_w:50 ~seed in
        let opt = Matching.Exact_small.max_weight_matching g w in
        List.map
          (fun eps ->
            let r = Core.App_matching.mwm ~mode:charged g w ~epsilon:eps ~seed in
            [
              Printf.sprintf "random(seed=%d)" seed; i (Graph.n g); f2 eps;
              i opt; i r.weight;
              f3 (float_of_int r.weight /. float_of_int opt);
              f3 (1. -. eps);
            ])
          [ 0.3; 0.1 ])
  in
  print_table ~title:"E3a: MWM exact ratios (small instances)"
    ~header:[ "graph"; "n"; "eps"; "opt"; "weight"; "ratio"; "target" ]
    small_rows;
  (* larger instances: vs baselines, with the greedy certificate OPT <= 2G *)
  let rows =
    grid
      (cartesian
         [ ("grid", Workloads.grid_of);
           ("apollonian", fun n -> Generators.random_apollonian n ~seed:8) ]
         [ 8; 64 ])
      (fun ((name, gen), max_w) ->
        let g = gen 256 in
        let w = Weights.random g ~max_w ~seed:7 in
        let r = Core.App_matching.mwm ~mode:charged g w ~epsilon:0.2 ~seed:7 in
        let greedy = Matching.Approx.weight g w (Matching.Approx.greedy g w) in
        let pg =
          Matching.Approx.weight g w (Matching.Approx.path_growing g w)
        in
        [
          [
            name; i (Graph.n g); i max_w; i r.weight; i greedy; i pg;
            f3 (float_of_int r.weight /. float_of_int greedy);
            f3 (float_of_int r.weight /. float_of_int (2 * greedy));
          ];
        ])
  in
  print_table ~title:"E3b: MWM vs distributed baselines (W sweep)"
    ~header:
      [ "family"; "n"; "W"; "framework"; "greedy"; "path-grow"; "vs greedy";
        "certified ratio" ]
    rows

(* ------------------------------------------------------------------ *)
(* E4 - Theorem 1.3: correlation clustering                             *)
(* ------------------------------------------------------------------ *)

let e4 () =
  note "\n### E4 (Theorem 1.3): (1-eps)-approximate correlation clustering\n";
  note "claim: score >= (1 - eps) gamma(G) with gamma >= m/2; planted labels with\n";
  note "noise are recovered near the ground truth\n";
  (* exact ratios on small instances *)
  let small_rows =
    grid [ 0; 1; 2; 3 ] (fun seed ->
        let g =
          Generators.add_random_edges (Generators.random_tree 13 ~seed) 9 ~seed
        in
        let labels = Generators.random_sign_labels g ~frac_pos:0.55 ~seed in
        let opt = Optimize.Correlation.exact_score g labels in
        let r = Core.App_correlation.run ~mode:charged g ~labels ~epsilon:0.2 ~seed in
        [
          [
            Printf.sprintf "random(seed=%d)" seed; i (Graph.n g); i opt;
            i r.score;
            f3 (float_of_int r.score /. float_of_int opt);
          ];
        ])
  in
  print_table ~title:"E4a: correlation clustering exact ratios (small)"
    ~header:[ "graph"; "n"; "opt"; "score"; "ratio" ]
    small_rows;
  let rows =
    grid
      (cartesian
         [
           ("grid", Workloads.grid_of 400);
           ("apollonian", Generators.random_apollonian 300 ~seed:10);
         ]
         [ 0.0; 0.1; 0.3 ])
      (fun ((name, g), noise) ->
        let communities, labels =
          Workloads.planted_correlation g ~communities_count:4 ~noise ~seed:9
        in
        let r = Core.App_correlation.run ~mode:charged g ~labels ~epsilon:0.2 ~seed:9 in
        let planted = Optimize.Correlation.score g labels communities in
        [
          [
            name; i (Graph.n g); f2 noise; i (Graph.m g); i r.score;
            i planted;
            pct (float_of_int r.score /. float_of_int (Graph.m g));
            pct (float_of_int r.score /. float_of_int (max 1 planted));
          ];
        ])
  in
  print_table ~title:"E4b: correlation clustering, planted labels"
    ~header:
      [ "family"; "n"; "noise"; "m"; "score"; "planted"; "score/m";
        "vs planted" ]
    rows

(* ------------------------------------------------------------------ *)
(* E5 - Theorem 1.4: property testing                                   *)
(* ------------------------------------------------------------------ *)

let e5 () =
  note "\n### E5 (Theorem 1.4): distributed property testing\n";
  note "claim: one-sided error - members always accepted; eps-far inputs rejected\n";
  let eps = 0.15 in
  let seeds = [ 0; 1; 2; 3; 4 ] in
  let member_of (p : Minorfree.Properties.t) seed =
    match p.name with
    | "planar" -> Generators.random_apollonian 240 ~seed
    | "forest" -> Generators.random_tree 240 ~seed
    | "outerplanar" -> Generators.random_maximal_outerplanar 240 ~seed
    | "series-parallel" -> Generators.random_k_tree 240 2 ~seed
    | _ -> Generators.path 240
  in
  let far_of (p : Minorfree.Properties.t) seed =
    (* add enough random edges that the structural edit bound certifies
       eps-farness *)
    let base = member_of p seed in
    let rec densify extra =
      let g = Generators.add_random_edges base extra ~seed in
      if Minorfree.Properties.far_from ~epsilon:eps g p then g
      else densify (extra * 2)
    in
    densify (max 16 (Graph.m base / 4))
  in
  let rows =
    grid
      [
        Minorfree.Properties.planar; Minorfree.Properties.forest;
        Minorfree.Properties.outerplanar; Minorfree.Properties.series_parallel;
      ]
      (fun (p : Minorfree.Properties.t) ->
        let accept_members =
          List.length
            (List.filter
               (fun seed ->
                 (Core.App_property.run ~mode:charged (member_of p seed) p
                    ~epsilon:eps ~seed)
                   .accepted)
               seeds)
        in
        let reject_far =
          List.length
            (List.filter
               (fun seed ->
                 not
                   (Core.App_property.run ~mode:charged (far_of p seed) p
                      ~epsilon:eps ~seed)
                     .accepted)
               seeds)
        in
        [
          [
            p.name;
            Printf.sprintf "K_%d" p.forbidden_clique;
            Printf.sprintf "%d/%d" accept_members (List.length seeds);
            Printf.sprintf "%d/%d" reject_far (List.length seeds);
          ];
        ])
  in
  print_table ~title:"E5: property testing accept/reject (eps = 0.15)"
    ~header:[ "property"; "forbidden"; "members accepted"; "far rejected" ]
    rows

(* ------------------------------------------------------------------ *)
(* E6 - Theorem 1.5: low-diameter decomposition D = O(1/eps)            *)
(* ------------------------------------------------------------------ *)

let e6 () =
  note "\n### E6 (Theorem 1.5): low-diameter decomposition with D = O(1/eps)\n";
  note "claim: D grows linearly in 1/eps (D*eps roughly constant), cut <= eps*m;\n";
  note "ablation: MPX random shifts carry an extra log n factor\n";
  let rows =
    grid
      (cartesian
         [
           ("grid", Workloads.grid_of 1024);
           ("apollonian", Generators.random_apollonian 800 ~seed:14);
           ("k-tree(3)", Generators.random_k_tree 600 3 ~seed:15);
           ("tree", Generators.random_tree 800 ~seed:16);
         ]
         [ 0.5; 0.25; 0.125; 0.0625 ])
      (fun ((name, g), eps) ->
        let r = Core.App_ldd.run ~mode:charged g ~epsilon:eps ~seed:13 in
        let mpx = Decomp.Ldd.mpx g ~beta:(eps /. 2.) ~seed:13 in
        let mpx_d = Decomp.Partition.max_cluster_diameter g mpx in
        let rg = Decomp.Ldd.region_growing g ~epsilon:eps in
        let rg_d = Decomp.Partition.max_cluster_diameter g rg in
        [
          [
            name; i (Graph.n g); f3 eps; i r.max_diameter;
            f2 (float_of_int r.max_diameter *. eps);
            pct r.cut_fraction; pct eps;
            i mpx_d; i rg_d;
          ];
        ])
  in
  print_table ~title:"E6: LDD diameter vs 1/eps (KPR in-framework; MPX, region-growing ablations)"
    ~header:
      [ "family"; "n"; "eps"; "D"; "D*eps"; "cut"; "budget"; "D(mpx)";
        "D(region)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E7 - Theorem 1.6 + Lemma 2.3: separators and high-degree vertices    *)
(* ------------------------------------------------------------------ *)

let e7 () =
  note "\n### E7 (Theorem 1.6 + Lemma 2.3): edge separators and high-degree leaders\n";
  note "claim: minor-free families have balanced separators of size O(sqrt(Delta n))\n";
  note "(bounded ratio); contrast families (hypercube, random regular) blow up\n";
  let rows =
    grid
      (cartesian (Workloads.families_with_contrast ~seed:18) [ 256; 1024 ])
      (fun ((name, gen), n) ->
        let g = gen n in
        if Graph.n g >= 6 then begin
          let cut = Decomp.Edge_separator.best g ~seed:17 in
          [
            [
              name; i (Graph.n g); i (Graph.m g);
              i (Graph.max_degree g); i cut.crossing;
              f2 (sqrt (float_of_int (Graph.max_degree g * Graph.n g)));
              f2 (Decomp.Edge_separator.quality g cut);
            ];
          ]
        end
        else [])
  in
  print_table ~title:"E7a: balanced edge separator sizes"
    ~header:
      [ "family"; "n"; "m"; "Delta"; "|dS|"; "sqrt(Delta*n)"; "ratio" ]
    rows;
  (* Lemma 2.3: max cluster degree vs phi^2 |V_i| *)
  let rows2 =
    grid (Workloads.families ~seed:19) (fun (name, gen) ->
      let g = gen 512 in
      let d = Spectral.Expander_decomposition.decompose g ~epsilon:0.4 in
      let clusters = Graph_ops.clusters g d.labels d.k in
      let worst_slack = ref infinity in
      let worst_ratio = ref infinity in
      Array.iter
        (fun (vs, sub, _) ->
          let ni = List.length vs in
          if ni >= 2 && Graph.m sub > 0 then begin
            let delta_i = float_of_int (Graph.max_degree sub) in
            let slack = delta_i /. (d.phi *. d.phi *. float_of_int ni) in
            let ratio = delta_i /. float_of_int ni in
            if slack < !worst_slack then worst_slack := slack;
            if ratio < !worst_ratio then worst_ratio := ratio
          end)
        clusters;
      [
        [
          name; i d.k; Printf.sprintf "%.1e" d.phi;
          (if Float.is_finite !worst_ratio then f4 !worst_ratio else "-");
          (if Float.is_finite !worst_slack then Printf.sprintf "%.1e" !worst_slack
           else "-");
        ];
      ])
  in
  print_table
    ~title:"E7b: Lemma 2.3 high-degree condition (slack = min Delta_i / (phi^2 |V_i|) >> 1)"
    ~header:[ "family"; "k"; "phi"; "min Delta_i/|V_i|"; "slack" ]
    rows2

(* ------------------------------------------------------------------ *)
(* E8 - Theorems 2.1 / 2.6: decomposition quality and round scaling     *)
(* ------------------------------------------------------------------ *)

let e8 () =
  note "\n### E8 (Theorems 2.1/2.6): decomposition quality and CONGEST rounds\n";
  note "claim: inter-cluster <= eps*m; cluster conductance >= phi; charged rounds\n";
  note "scale polylogarithmically (flat charged/log^3 n column); simulated rounds\n";
  note "for small n; ablation: BFS-ball clustering has no conductance floor\n";
  let rows =
    grid
      (cartesian
         [
           ("grid", Workloads.grid_of, 0.5);
           ("tree", (fun n -> Generators.random_tree n ~seed:21), 0.3);
           ("apollonian", (fun n -> Generators.random_apollonian n ~seed:22), 0.3);
         ]
         [ 64; 256; 1024; 4096 ])
      (fun ((name, gen, eps), n) ->
        let g = gen n in
        let real_n = Graph.n g in
        let d = Spectral.Expander_decomposition.decompose g ~epsilon:eps in
        let _, worst =
          Spectral.Expander_decomposition.verify ~power_iters:120 ~seed:0 g d
        in
        let charged = Core.Pipeline.construction_charge ~n:real_n ~epsilon:eps in
        let logn = log (float_of_int (max 2 real_n)) /. log 2. in
        (* the simulated pipeline decomposes by cut-matching, so its
           cluster count sits beside its rounds: the k column is the
           spectral oracle's *)
        let simulated, sim_k =
          if real_n <= 150 then begin
            let p = Core.Pipeline.prepare ~mode:Core.Pipeline.Simulated g ~epsilon:eps ~seed:20 in
            (i p.report.simulated_rounds, i p.report.k)
          end
          else ("-", "-")
        in
        (* ablation: BFS balls of comparable cluster count *)
        let bfs = Spectral.Expander_decomposition.bfs_ball_baseline g ~radius:3 in
        let _, bfs_worst =
          Spectral.Expander_decomposition.verify ~power_iters:120 ~seed:0 g
            { bfs with epsilon = 1.0 }
        in
        let det =
          Core.Pipeline.construction_charge_deterministic ~n:real_n
            ~epsilon:eps
        in
        [
          [
            name; i real_n; f2 eps; i d.k;
            pct (Spectral.Expander_decomposition.inter_fraction g d);
            Printf.sprintf "%.1e" d.phi; f4 worst;
            i charged; f1 (float_of_int charged /. (logn ** 3.));
            i det; simulated; sim_k; f4 bfs_worst;
          ];
        ])
  in
  print_table ~title:"E8: decomposition + rounds scaling"
    ~header:
      [ "family"; "n"; "eps"; "k"; "inter"; "phi"; "min cond"; "charged";
        "charged/log^3"; "det charge"; "simulated"; "sim k"; "bfs-ball cond" ]
    rows

(* ------------------------------------------------------------------ *)
(* E9 - Lemma 2.4: random-walk routing                                  *)
(* ------------------------------------------------------------------ *)

let e9 () =
  note "\n### E9 (Lemma 2.4): random-walk routing to the leader\n";
  note "claim: delivery reaches 100%% once the walk budget passes the mixing-time\n";
  note "scale; per-edge congestion stays at O(log n) words per round;\n";
  note "ablation: a random (low-degree) leader needs longer walks\n";
  let g = Generators.random_apollonian 96 ~seed:23 in
  let view = Distr.Cluster_view.whole g in
  let election = Distr.Leader_election.run view ~rounds:(Graph.n g) in
  let max_leader = election.leader_of in
  (* ablation leader: vertex 0 regardless of degree *)
  let fixed_leader = Array.make (Graph.n g) 0 in
  (* deterministic contrast (Lemma 2.5 stand-in), independent of the walk
     budget: a BFS tree from the leaders, then the same 2 tokens per
     vertex shipped up each vertex's parent chain to its root *)
  let roots = Array.init (Graph.n g) (fun v -> max_leader.(v) = v) in
  let bfs = Distr.Bfs_tree.run view ~roots ~rounds:(Graph.n g) in
  if not (Distr.Bfs_tree.check view bfs ~roots) then
    failwith "E9: BFS tree from the leaders is not a shortest-path tree";
  let rec chain v acc =
    let p = bfs.parent.(v) in
    if p = v then List.rev (v :: acc) else chain p (v :: acc)
  in
  let plans =
    Array.init (2 * Graph.n g) (fun d -> Array.of_list (chain (d / 2) []))
  in
  let ship = Distr.Witness_routing.run g ~plans ~max_rounds:4000 in
  if not (Distr.Witness_routing.check ~plans ship && ship.undelivered = 0) then
    failwith "E9: parent-chain shipping lost a token";
  let det_bfs = bfs.stats.Congest.Network.last_traffic_round in
  let det_rounds = det_bfs + ship.last_round in
  let rows =
    grid [ 4; 16; 64; 256; 1024 ] (fun walk_len ->
        let run leader_of =
          Distr.Walk_routing.run view ~leader_of
            ~tokens_of:(fun _ -> 2)
            ~walk_len ~seed:24 ~max_rounds:(walk_len * 60)
        in
        let r_max = run max_leader in
        let r_fixed = run fixed_leader in
        let rate r =
          Distr.Walk_routing.delivery_rate view ~tokens_of:(fun _ -> 2) r
        in
        [
          [
            i walk_len;
            pct (rate r_max);
            i r_max.stats.Congest.Network.last_traffic_round;
            i r_max.stats.Congest.Network.max_edge_bits;
            pct (rate r_fixed);
            i det_rounds;
          ];
        ])
  in
  print_table
    ~title:
      (Printf.sprintf
         "E9: walk routing on apollonian n=%d (leader deg %d; ablation leader \
          deg %d; det-tree = %d BFS + %d shipping rounds)"
         (Graph.n g)
         (Graph.degree g max_leader.(0))
         (Graph.degree g 0) det_bfs ship.last_round)
    ~header:
      [ "walk budget"; "delivered"; "rounds"; "max edge bits";
        "delivered (low-deg leader)"; "det-tree rounds" ]
    rows

(* ------------------------------------------------------------------ *)
(* E10 - Section 2: mixing time vs conductance                          *)
(* ------------------------------------------------------------------ *)

let e10 () =
  note "\n### E10 (Section 2): Theta(1/Phi) <= tau_mix <= Theta(log n / Phi^2)\n";
  note "claim: the Jerrum-Sinclair sandwich holds for the lazy walk; expanders\n";
  note "mix in O(log n), cycles and paths in Theta(n^2)\n";
  let rows =
    grid
      [
      ("complete K12", Generators.complete 12);
      ("complete K32", Generators.complete 32);
      ("hypercube Q6", Generators.hypercube 6);
      ("grid 8x8", Generators.grid 8 8);
      ("grid 12x12", Generators.grid 12 12);
      ("cycle 32", Generators.cycle 32);
      ("cycle 64", Generators.cycle 64);
      ("path 48", Generators.path 48);
      ("apollonian 64", Generators.random_apollonian 64 ~seed:26);
      ("barbell 8+2", Generators.barbell 8 2);
      ]
      (fun (name, g) ->
        let phi =
          if Graph.n g <= 14 then Spectral.Conductance.exact g
          else
            (Spectral.Sweep_cut.combined_cut g ~iters:400 ~seed:25).conductance
        in
        match Spectral.Random_walk.mixing_time g ~max_t:200_000 with
        | None -> []
        | Some tmix ->
            let n = float_of_int (Graph.n g) in
            let lower = 1. /. phi in
            let upper = log n /. (phi *. phi) in
            [
              [
                name; i (Graph.n g); f4 phi; i tmix;
                f2 (float_of_int tmix /. lower);
                f3 (float_of_int tmix /. upper);
              ];
            ])
  in
  print_table
    ~title:"E10: mixing time sandwich (tmix/(1/Phi) >= c, tmix/(log n/Phi^2) <= C)"
    ~header:[ "graph"; "n"; "Phi"; "tau_mix"; "vs 1/Phi"; "vs log n/Phi^2" ]
    rows

(* ------------------------------------------------------------------ *)
(* E11 - the LOCAL-CONGEST gap itself: gathering cost comparison        *)
(* ------------------------------------------------------------------ *)

let e11 () =
  note "\n### E11 (the title claim): LOCAL vs CONGEST topology gathering\n";
  note "claim: the LOCAL baseline (BFS convergecast) needs few rounds but\n";
  note "Theta(|E_i| log n)-bit messages; Lemma 2.4 random-walk routing stays\n";
  note "within the O(log n)-bit CONGEST budget at a poly overhead in rounds\n";
  let rows =
    grid
      [
        ("apollonian", Generators.random_apollonian 128 ~seed:28, 0.3);
        ("grid", Workloads.grid_of 144, 0.3);
        ("tree", Generators.random_tree 128 ~seed:29, 0.3);
        ("blob-chain", Generators.blob_chain ~blobs:8 ~blob_size:16 ~seed:30, 0.3);
      ]
      (fun (name, g, eps) ->
      let d = Spectral.Expander_decomposition.decompose g ~epsilon:eps in
      let view = Distr.Cluster_view.of_labels g d.labels in
      (* max cluster diameter, for round budgets *)
      let diam =
        max 1
          (Graph_ops.max_cluster_diameter (Graph_ops.clusters g d.labels d.k))
      in
      let election = Distr.Leader_election.run view ~rounds:diam in
      let leader_of = election.leader_of in
      let local =
        Distr.Local_gather.run view ~leader_of
          ~rounds_budget:((2 * diam) + 6)
      in
      if not (Distr.Gather.complete view ~leader_of local.edges_at_leader) then
        failwith ("E11: LOCAL gathering incomplete on " ^ name);
      let congest_budget =
        match Congest.Network.congest_bandwidth (Graph.n g) with
        | Congest.Network.Congest b -> b
        | Congest.Network.Local -> 0
      in
      let rec congest_gather walk_len attempts =
        let r =
          Distr.Gather.run view ~leader_of ~density:3. ~walk_len
            ~seed:(27 + attempts) ~max_rounds:(walk_len * 50)
        in
        if Distr.Gather.complete view ~leader_of r.edges_at_leader then r
        else if attempts > 6 then
          failwith ("E11: walk gathering incomplete on " ^ name)
        else congest_gather (walk_len * 2) (attempts + 1)
      in
      let congest = congest_gather 256 0 in
      [
        [
          name; i (Graph.n g); i d.k; i diam;
          i local.rounds; i local.max_message_bits;
          i congest.routing_stats.Congest.Network.last_traffic_round;
          i congest.routing_stats.Congest.Network.max_edge_bits;
          i congest_budget;
          f1
            (float_of_int local.max_message_bits
            /. float_of_int (max 1 congest.routing_stats.Congest.Network.max_edge_bits));
        ];
      ])
  in
  print_table
    ~title:
      "E11: gathering, LOCAL convergecast vs CONGEST random walks (bits = per edge per round)"
    ~header:
      [ "family"; "n"; "k"; "diam"; "LOCAL rounds"; "LOCAL bits";
        "CONGEST rounds"; "CONGEST bits"; "budget"; "bits gap" ]
    rows

(* ------------------------------------------------------------------ *)
(* E12 - distributed decomposition: measured rounds vs the charge       *)
(* ------------------------------------------------------------------ *)

let e12 () =
  note "\n### E12 (Theorem 2.1, constructive): distributed expander decomposition\n";
  note "claim: a genuinely distributed construction (every step simulated within\n";
  note "the CONGEST bandwidth) matches the oracle's quality; measured rounds are\n";
  note "compared against the Theorem 2.1 charge used elsewhere\n";
  let rows =
    grid
      [
        ("path", Generators.path 64, 0.3);
        ("tree", Generators.random_tree 128 ~seed:35, 0.3);
        ("blob-chain", Generators.blob_chain ~blobs:8 ~blob_size:12 ~seed:36, 0.4);
        ("grid", Workloads.grid_of 100, 0.3);
        ("apollonian", Generators.random_apollonian 96 ~seed:37, 0.3);
        ("barbell", Generators.barbell 10 2, 0.2);
      ]
      (fun (name, g, eps) ->
        let dd = Distr.Distributed_decomposition.decompose g ~epsilon:eps in
        let inter_ok, worst = Distr.Distributed_decomposition.verify g dd in
        let oracle = Spectral.Expander_decomposition.decompose g ~epsilon:eps in
        let _, oworst =
          Spectral.Expander_decomposition.verify ~power_iters:120 ~seed:0 g
            oracle
        in
        let charge = Core.Pipeline.construction_charge ~n:(Graph.n g) ~epsilon:eps in
        [
          [
            name; i (Graph.n g); f2 eps;
            i dd.k; i oracle.k;
            pct
              (float_of_int (List.length dd.inter_edges)
              /. float_of_int (max 1 (Graph.m g)));
            (if inter_ok then "yes" else "NO");
            f4 worst; f4 oworst;
            i dd.levels; i dd.total_rounds; i charge;
            i dd.max_edge_bits;
          ];
        ])
  in
  print_table
    ~title:
      "E12: distributed construction vs centralized oracle (k, conductance) and vs the round charge"
    ~header:
      [ "family"; "n"; "eps"; "k(dist)"; "k(oracle)"; "inter"; "in budget";
        "minCond(dist)"; "minCond(oracle)"; "levels"; "rounds"; "charge";
        "max bits" ]
    rows

(* ------------------------------------------------------------------ *)
(* E13 - extensions: weighted MIS, dominating set, vertex cover         *)
(* ------------------------------------------------------------------ *)

let e13 () =
  note "\n### E13 (extensions): weighted MaxIS, dominating set, vertex cover\n";
  note "measured quality of the framework on the Section 1.1 / 1.4 problem\n";
  note "variants; no (1-eps) guarantee is claimed for these (see DESIGN.md)\n";
  (* weighted MIS vs exact on solvable sizes *)
  let wmis_rows =
    grid
      [
        ("apollonian", Generators.random_apollonian 60 ~seed:40, 40);
        ("grid", Workloads.grid_of 49, 41);
        ("blob-chain", Generators.blob_chain ~blobs:5 ~blob_size:12 ~seed:42, 42);
      ]
      (fun (name, g, seed) ->
        let n = Graph.n g in
        let st = Random.State.make [| seed; 6151 |] in
        let weights = Array.init n (fun _ -> 1 + Random.State.int st 30) in
        let r =
          Core.App_mis.run_weighted ~mode:charged g ~weights
            ~epsilon:0.3 ~seed
        in
        let opt =
          Optimize.Mis.weight_of weights (Optimize.Mis.exact_weighted g weights)
        in
        [
          [
            "weighted-MIS"; name; i n; i r.total_weight; i opt;
            f3 (float_of_int r.total_weight /. float_of_int (max 1 opt));
          ];
        ])
  in
  (* dominating set *)
  let dom_rows =
    grid
      [
        ("grid", Generators.grid 6 6, 43);
        ("tree", Generators.random_tree 60 ~seed:44, 44);
        ("outerplanar", Generators.random_maximal_outerplanar 50 ~seed:45, 45);
      ]
      (fun (name, g, seed) ->
        let r = Core.App_covering.dominating_set ~mode:charged g ~epsilon:0.3 ~seed in
        let opt = Optimize.Dominating.exact_size g in
        [
          [
            "dominating-set"; name; i (Graph.n g); i r.size; i opt;
            f3 (float_of_int r.size /. float_of_int (max 1 opt));
          ];
        ])
  in
  (* vertex cover *)
  let vc_rows =
    grid
      [
        ("grid", Generators.grid 10 10, 46);
        ("apollonian", Generators.random_apollonian 120 ~seed:47, 47);
        ("blob-chain", Generators.blob_chain ~blobs:10 ~blob_size:12 ~seed:48, 48);
      ]
      (fun (name, g, seed) ->
        let r = Core.App_covering.vertex_cover ~mode:charged g ~epsilon:0.3 ~seed in
        let opt = Optimize.Vertex_cover.exact_size g in
        [
          [
            "vertex-cover"; name; i (Graph.n g); i r.size; i opt;
            f3 (float_of_int r.size /. float_of_int (max 1 opt));
          ];
        ])
  in
  print_table
    ~title:"E13: extension problems, framework vs exact (ratio: min problems want <= 1+eps, max problems >= 1-eps)"
    ~header:[ "problem"; "family"; "n"; "framework"; "exact"; "ratio" ]
    (wmis_rows @ dom_rows @ vc_rows)

(* ------------------------------------------------------------------ *)
(* Smoke workload: a seconds-scale slice of the pipeline used by the    *)
(* @bench-smoke alias to validate the observability profile end to end  *)
(* ------------------------------------------------------------------ *)

let smoke () =
  note "\n### smoke: tiny end-to-end pass (pipeline + KPR + distributed)\n";
  let rows =
    grid
      [
        ("grid", Workloads.grid_of 64, 21);
        ( "blob-chain",
          Generators.blob_chain ~blobs:4 ~blob_size:8 ~seed:22,
          22 );
      ]
      (fun (name, g, seed) ->
        let p = Core.Pipeline.prepare g ~epsilon:0.4 ~seed in
        let part = Decomp.Kpr.chop g ~width:4 ~levels:2 ~seed in
        let d = Distr.Distributed_decomposition.decompose g ~epsilon:0.4 in
        [
          [
            name; i (Graph.n g); i p.report.k;
            i p.report.simulated_rounds; i part.Decomp.Partition.k;
            i d.Distr.Distributed_decomposition.k;
          ];
        ])
  in
  print_table ~title:"smoke: pipeline / KPR / distributed decomposition"
    ~header:[ "family"; "n"; "k"; "sim rounds"; "kpr k"; "distr k" ]
    rows

(* ------------------------------------------------------------------ *)
(* Fault sweep: drop-rate x algorithm grid over the retry-hardened      *)
(* primitives on a lossy CONGEST network (lib/congest/faults.ml).       *)
(* bench/main.ml sets the refs from --fault-seed / --drop-rate; cell    *)
(* seeds are derived from the sweep seed before the grid fans out, so   *)
(* the table is byte-identical across reruns and --jobs settings.       *)
(* ------------------------------------------------------------------ *)

let fault_seed = ref 20220711
let fault_rates = ref [ 0.0; 0.05; 0.1; 0.2 ]

let fault_sweep () =
  note "\n### fault-sweep: retry-hardened primitives on a lossy network\n";
  note "claim: ack/retry broadcast, heartbeat BFS and heartbeat-evict election\n";
  note "complete under seeded Bernoulli drops (duplication rate = drop/4);\n";
  note "'rounds' is the smallest budget from a fixed ladder that passes the\n";
  note "algorithm's own checker, 'quiesce' the last round with traffic\n";
  let seed0 = !fault_seed in
  let rates = !fault_rates in
  let fams =
    [
      ("grid", Workloads.grid_of 64);
      ("apollonian", Generators.random_apollonian 64 ~seed:51);
    ]
  in
  let algs = [ "broadcast"; "bfs"; "election" ] in
  let cells =
    List.mapi
      (fun idx ((fam, alg), p) -> (fam, alg, p, Parallel.Pool.derive_seed seed0 idx))
      (cartesian (cartesian fams algs) rates)
  in
  let rows =
    grid cells (fun ((fname, g), alg, p, seed) ->
        let view = Distr.Cluster_view.whole g in
        let n = Graph.n g in
        let diam = Traversal.diameter_double_sweep g in
        let faults =
          Congest.Faults.make ~drop_rate:p ~duplicate_rate:(p /. 4.) ~seed ()
        in
        let budgets =
          [ diam + 2; (2 * diam) + 12; (4 * diam) + 30; (8 * diam) + 80 ]
        in
        (* smallest budget from the ladder that passes the checker *)
        let attempt rounds =
          match alg with
          | "broadcast" ->
              let sources =
                Array.init n (fun v -> if v = 0 then Some 424242 else None)
              in
              let r = Distr.Broadcast.run_reliable ~faults view ~sources ~rounds in
              (Distr.Broadcast.check view r ~sources, r.stats)
          | "bfs" ->
              let roots = Array.init n (fun v -> v = 0) in
              let r = Distr.Bfs_tree.run_reliable ~faults view ~roots ~rounds in
              (Distr.Bfs_tree.check view r ~roots, r.stats)
          | _ ->
              let r =
                Distr.Leader_election.run_reliable ~faults
                  ~patience:((2 * diam) + 8) view ~rounds
              in
              (Distr.Leader_election.check view r, r.stats)
        in
        let rec first_passing = function
          | [] -> (false, List.nth budgets (List.length budgets - 1))
          | b :: rest ->
              let ok, _ = attempt b in
              if ok then (true, b) else first_passing rest
        in
        let ok, budget = first_passing budgets in
        let _, stats = attempt budget in
        let s = stats in
        [
          [
            fname; alg; f2 p; i n; i diam;
            (if ok then "yes" else "NO");
            i budget;
            i s.Congest.Network.last_traffic_round;
            i s.Congest.Network.messages;
            i s.Congest.Network.dropped;
            i s.Congest.Network.duplicated;
            i s.Congest.Network.max_edge_bits;
          ];
        ])
  in
  print_table
    ~title:
      "fault-sweep: completion of retry-hardened primitives under message loss"
    ~header:
      [ "family"; "alg"; "drop"; "n"; "diam"; "ok"; "rounds"; "quiesce";
        "messages"; "dropped"; "dup"; "max bits" ]
    rows

(* ------------------------------------------------------------------ *)
(* Bench verdicts. congest-bench, decomp-bench and route-bench evaluate *)
(* their invariants on the typed values they hold and record them in   *)
(* their BENCH document: "checks" ([{name, at, ok}], every one must     *)
(* hold) and "claims" ([{name, at, value}], figures whose threshold     *)
(* depends on the run's size, bounded per gate by check_profile --bench *)
(* --at-least / --at-most).                                             *)
(* ------------------------------------------------------------------ *)

type verdicts = {
  mutable checks : Obs.Json.t list;
  mutable claims : Obs.Json.t list;
}

let verdicts () = { checks = []; claims = [] }

let check v name ~at ok =
  v.checks <-
    Obs.Json.Obj
      [ ("name", Obs.Json.Str name); ("at", Obs.Json.Str at);
        ("ok", Obs.Json.Bool ok) ]
    :: v.checks

let claim v name ~at value =
  v.claims <-
    Obs.Json.Obj
      [ ("name", Obs.Json.Str name); ("at", Obs.Json.Str at);
        ("value", Obs.Json.Float value) ]
    :: v.claims

let verdict_fields v =
  [ ("checks", Obs.Json.List (List.rev v.checks));
    ("claims", Obs.Json.List (List.rev v.claims)) ]

(* ------------------------------------------------------------------ *)
(* congest-bench: the active-vertex scheduler against the reference     *)
(* loop. Each workload runs the same init / round function through      *)
(* Network.run_reference and Network.run, checks identical statistics,  *)
(* and records simulated rounds/sec and minor-heap allocation per round *)
(* in BENCH_congest.json.                                               *)
(* bench/main.ml sets the refs from --congest-n / --congest-out.        *)
(* ------------------------------------------------------------------ *)

let congest_n = ref 20_000
let congest_out = ref "BENCH_congest.json"
let congest_shards = ref 4

(* top rung of the sharded scaling ladder; 0 = reuse --congest-n *)
let congest_scale_max = ref 0

(* a congest-bench workload: a graph plus a scheduler-agnostic algorithm
   obeying the wake-up contract, so both loops compute the same run *)
type 'a congest_workload = {
  cw_name : string;
  cw_graph : Graph.t;
  cw_round : int -> Congest.Network.ctx -> int -> (int * int) list ->
             (int, int) Congest.Network.step;
  cw_init : Congest.Network.ctx -> int;
  cw_max_rounds : int;
}

let congest_workloads n =
  let open Congest in
  let mix a b =
    ((a * 0x9e3779b1) lxor ((b * 0x85ebca6b) + 0x27d4eb2f)) land 0xfffffff
  in
  (* heartbeat: one endpoint of a long path beats every round while the
     other n - 2 vertices sleep — the sparse-frontier case the scheduler
     exists for *)
  let hb_rounds = 300 in
  let heartbeat =
    {
      cw_name = "heartbeat";
      cw_graph = Generators.path n;
      cw_init = (fun _ -> 0);
      cw_max_rounds = hb_rounds + 1;
      cw_round =
        (fun r (ctx : Network.ctx) st inbox ->
          let st = st + List.length inbox in
          if r > hb_rounds then Network.step st ~halt:true
          else if ctx.id = 0 then
            Network.step st
              ~send:[ (ctx.neighbors.(0), r land 0xff) ]
              ~wake_after:1
          else Network.step st ~wake_after:(hb_rounds + 1 - r));
    }
  in
  (* broadcast: a single value floods a grid; each vertex forwards once,
     so the frontier is the BFS wavefront *)
  let bgrid = Workloads.grid_of n in
  let bn = Graph.n bgrid in
  let bside = max 2 (int_of_float (sqrt (float_of_int bn))) in
  let bbudget = (2 * bside) + 4 in
  let broadcast =
    {
      cw_name = "broadcast";
      cw_graph = bgrid;
      cw_init = (fun (ctx : Network.ctx) -> if ctx.id = 0 then 424242 else -1);
      cw_max_rounds = bbudget + 1;
      cw_round =
        (fun r (ctx : Network.ctx) best inbox ->
          let nb = List.fold_left (fun b (_, x) -> max b x) best inbox in
          if r > bbudget then Network.step nb ~halt:true
          else begin
            let send =
              if (r = 1 && ctx.id = 0) || nb > best then
                Array.to_list (Array.map (fun w -> (w, nb)) ctx.neighbors)
              else []
            in
            Network.step nb ~send ~wake_after:(bbudget + 1 - r)
          end);
    }
  in
  (* bfs: depths propagate down a random tree from vertex 0 *)
  let tgraph = Generators.random_tree n ~seed:20220711 in
  let tbudget = Traversal.diameter_double_sweep tgraph + 2 in
  let bfs =
    {
      cw_name = "bfs";
      cw_graph = tgraph;
      cw_init = (fun (ctx : Network.ctx) -> if ctx.id = 0 then 0 else -1);
      cw_max_rounds = tbudget + 1;
      cw_round =
        (fun r (ctx : Network.ctx) depth inbox ->
          if r > tbudget then Network.step depth ~halt:true
          else begin
            let adopted =
              if depth >= 0 then depth
              else
                List.fold_left
                  (fun acc (_, d) -> if acc < 0 || d + 1 < acc then d + 1 else acc)
                  (-1) inbox
            in
            let send =
              if adopted >= 0 && depth < 0 then
                Array.to_list
                  (Array.map (fun w -> (w, adopted)) ctx.neighbors)
              else if r = 1 && ctx.id = 0 then
                Array.to_list (Array.map (fun w -> (w, 0)) ctx.neighbors)
              else []
            in
            Network.step adopted ~send ~wake_after:(tbudget + 1 - r)
          end);
    }
  in
  (* mis: hash-priority Luby rounds on the grid — the full-frontier case
     where the scheduler cannot skip anything and the flat inbox plumbing
     carries the win. States: -1 undecided, 0 out, 1 in; messages:
     2p = priority announcement, 1 = joined. *)
  let mn = Graph.n bgrid in
  let mbudget = 2 * (24 + (mn / max 1 (mn / 64))) in
  let mis =
    {
      cw_name = "mis";
      cw_graph = bgrid;
      cw_init = (fun _ -> -1);
      cw_max_rounds = mbudget;
      cw_round =
        (fun r (ctx : Network.ctx) st inbox ->
          if st >= 0 then Network.step st ~halt:true
          else if r land 1 = 1 then begin
            (* odd: absorb join notices; survivors announce priorities *)
            if List.exists (fun (_, m) -> m = 1) inbox then
              Network.step 0 ~halt:true
            else begin
              let p = 2 * mix ctx.id r in
              Network.step st
                ~send:
                  (Array.to_list (Array.map (fun w -> (w, p)) ctx.neighbors))
                ~wake_after:1
            end
          end
          else begin
            (* even: strict local maximum joins and notifies *)
            let mine = 2 * mix ctx.id (r - 1) in
            let beaten =
              List.exists (fun (_, m) -> m land 1 = 0 && m >= mine) inbox
            in
            if beaten then Network.step st ~wake_after:1
            else
              Network.step 1
                ~send:
                  (Array.to_list (Array.map (fun w -> (w, 1)) ctx.neighbors))
                ~wake_after:1
          end);
    }
  in
  [ heartbeat; broadcast; bfs; mis ]

let congest_measure f =
  let mw0 = Gc.minor_words () in
  let t0 = Obs.Clock.wall_s () in
  let states, stats = f () in
  let dt = Obs.Clock.wall_s () -. t0 in
  let mw = Gc.minor_words () -. mw0 in
  (states, (stats : Congest.Network.stats), max 1e-9 dt, mw)

let congest_sharded_exec () =
  Congest.Network.Sharded { shards = max 1 !congest_shards; pool = !pool }

let congest_bench () =
  note "\n### congest-bench: scheduler and shard pool vs reference loop\n";
  note "claim: identical stats; large speedups on sparse frontiers\n";
  let v = verdicts () in
  let bench_one cw =
    let n = Graph.n cw.cw_graph in
    let msg_bits _ = Congest.Bits.id_bits n in
    (* per-vertex step counters: disjoint slots stay race-free when the
       sharded loop steps vertices on several domains at once *)
    let counts = Array.make n 0 in
    let counted_round r (ctx : Congest.Network.ctx) st inbox =
      counts.(ctx.id) <- counts.(ctx.id) + 1;
      cw.cw_round r ctx st inbox
    in
    let take_counts () =
      let s = Array.fold_left ( + ) 0 counts in
      Array.fill counts 0 n 0;
      s
    in
    let measure = congest_measure in
    let ref_states, ref_stats, ref_s, ref_mw =
      measure (fun () ->
          Congest.Network.run_reference cw.cw_graph ~bandwidth:Congest.Network.Local
            ~msg_bits ~init:cw.cw_init ~round:counted_round
            ~max_rounds:cw.cw_max_rounds)
    in
    let ref_steps = take_counts () in
    let ev_states, ev_stats, ev_s, ev_mw =
      measure (fun () ->
          Congest.Network.run cw.cw_graph
            ~bandwidth:Congest.Network.Local ~msg_bits ~init:cw.cw_init
            ~round:counted_round ~max_rounds:cw.cw_max_rounds)
    in
    let ev_steps = take_counts () in
    (* minor_words for this side only sees the coordinator domain's
       allocations. *)
    let sh_states, sh_stats, sh_s, sh_mw =
      measure (fun () ->
          Congest.Network.run cw.cw_graph
            ~exec:(congest_sharded_exec ())
            ~bandwidth:Congest.Network.Local ~msg_bits ~init:cw.cw_init
            ~round:counted_round ~max_rounds:cw.cw_max_rounds)
    in
    let sh_steps = take_counts () in
    let stats_equal =
      ref_stats = ev_stats && ref_states = ev_states
      && ref_stats = sh_stats && ref_states = sh_states
    in
    let at = "workloads/" ^ cw.cw_name in
    check v "stats_equal" ~at stats_equal;
    (* the scheduling invariant: no loop steps a vertex more than once per
       round *)
    check v "active_vertices_bound" ~at
      (ev_steps <= n * ref_stats.Congest.Network.rounds);
    let rounds = float_of_int (max 1 ref_stats.Congest.Network.rounds) in
    let ref_rps = rounds /. ref_s
    and ev_rps = rounds /. ev_s
    and sh_rps = rounds /. sh_s in
    let ref_wpr = ref_mw /. rounds
    and ev_wpr = ev_mw /. rounds
    and sh_wpr = sh_mw /. rounds in
    let side label seconds rps wpr steps =
      ( label,
        Obs.Json.Obj
          [
            ("seconds", Obs.Json.Float seconds);
            ("rounds_per_sec", Obs.Json.Float rps);
            ("minor_words_per_round", Obs.Json.Float wpr);
            ("round_calls", Obs.Json.Int steps);
          ] )
    in
    let json =
      Obs.Json.Obj
        [
          ("name", Obs.Json.Str cw.cw_name);
          ("n", Obs.Json.Int n);
          ("rounds", Obs.Json.Int ref_stats.Congest.Network.rounds);
          ("messages", Obs.Json.Int ref_stats.Congest.Network.messages);
          ("active_vertices", Obs.Json.Int ev_steps);
          side "reference" ref_s ref_rps ref_wpr ref_steps;
          side "event" ev_s ev_rps ev_wpr ev_steps;
          side "sharded" sh_s sh_rps sh_wpr sh_steps;
          ("speedup", Obs.Json.Float (ev_rps /. ref_rps));
          ("sharded_speedup", Obs.Json.Float (sh_rps /. ref_rps));
          ( "alloc_ratio",
            Obs.Json.Float (ref_wpr /. max 1e-9 ev_wpr) );
          ("stats_equal", Obs.Json.Bool stats_equal);
        ]
    in
    let row =
      [
        cw.cw_name; i n;
        i ref_stats.Congest.Network.rounds;
        i ref_stats.Congest.Network.messages;
        i ref_steps; i ev_steps;
        f1 (ev_rps /. ref_rps);
        f1 (sh_rps /. ref_rps);
        (if stats_equal then "yes" else "NO");
      ]
    in
    (json, row)
  in
  let results = List.map bench_one (congest_workloads !congest_n) in
  print_table
    ~title:"congest-bench: Network.run / sharded vs run_reference"
    ~header:
      [ "workload"; "n"; "rounds"; "messages"; "ref calls"; "event calls";
        "speedup"; "sh speedup"; "stats eq" ]
    (List.map snd results);
  (* the scaling ladder: sharded vs sequential event-driven (no reference
     side — the full sweep is what the big-n runs exist to avoid), at
     n = m/16, m/4, m for the event-friendly workloads *)
  let ladder_one n cw =
    let gn = Graph.n cw.cw_graph in
    let msg_bits _ = Congest.Bits.id_bits gn in
    let ev_states, ev_stats, ev_s, _ =
      congest_measure (fun () ->
          Congest.Network.run cw.cw_graph
            ~bandwidth:Congest.Network.Local ~msg_bits ~init:cw.cw_init
            ~round:cw.cw_round ~max_rounds:cw.cw_max_rounds)
    in
    let sh_states, sh_stats, sh_s, _ =
      congest_measure (fun () ->
          Congest.Network.run cw.cw_graph
            ~exec:(congest_sharded_exec ())
            ~bandwidth:Congest.Network.Local ~msg_bits ~init:cw.cw_init
            ~round:cw.cw_round ~max_rounds:cw.cw_max_rounds)
    in
    let stats_equal = ev_stats = sh_stats && ev_states = sh_states in
    check v "stats_equal"
      ~at:(Printf.sprintf "scaling/%s/n=%d" cw.cw_name n)
      stats_equal;
    note "  scaling %-9s n=%-8d  event %.3fs  sharded %.3fs  %s\n" cw.cw_name
      n ev_s sh_s
      (if stats_equal then "stats eq" else "STATS MISMATCH");
    Obs.Json.Obj
      [
        ("name", Obs.Json.Str cw.cw_name);
        ("n", Obs.Json.Int n);
        ("rounds", Obs.Json.Int ev_stats.Congest.Network.rounds);
        ("event_seconds", Obs.Json.Float ev_s);
        ("sharded_seconds", Obs.Json.Float sh_s);
        ("speedup", Obs.Json.Float (ev_s /. sh_s));
        ("stats_equal", Obs.Json.Bool stats_equal);
      ]
  in
  let scale_max =
    if !congest_scale_max > 0 then !congest_scale_max else !congest_n
  in
  let rungs =
    let candidates =
      List.sort_uniq compare
        (List.filter
           (fun x -> x >= 64)
           [ scale_max / 16; scale_max / 4; scale_max ])
    in
    if candidates = [] then [ scale_max ] else candidates
  in
  note "\n### sharded scaling ladder (event-driven vs sharded)\n";
  let scaling =
    List.concat_map
      (fun n ->
        congest_workloads n
        |> List.filter (fun cw -> cw.cw_name <> "mis")
        |> List.map (ladder_one n))
      rungs
  in
  let doc =
    Obs.Json.Obj
      ([
         ("schema", Obs.Json.Str "expander-congest-bench");
         ("version", Obs.Json.Int 3);
         ("n", Obs.Json.Int !congest_n);
         ("shards", Obs.Json.Int (max 1 !congest_shards));
         ("workloads", Obs.Json.List (List.map fst results));
         ("scaling", Obs.Json.List scaling);
       ]
      @ verdict_fields v)
  in
  Obs.Export.write_file !congest_out (Obs.Json.to_string_pretty doc);
  Printf.printf "[congest-bench written to %s]\n" !congest_out

(* ------------------------------------------------------------------ *)
(* decomp-bench: the quality-vs-speed frontier of the two expander-    *)
(* decomposition engines (spectral bipartitioning vs the flow-based    *)
(* cut-matching game) over a grid / planar / regular size ladder.      *)
(* Both engines run at every point; small instances are cross-checked  *)
(* against the spectral conductance oracle (every accepted cluster     *)
(* must certify >= phi). Results go to BENCH_decomp.json (schema       *)
(* "expander-decomp-bench", gated by check_profile --bench).           *)
(* bench/main.ml sets the refs from --decomp-n / --decomp-out.         *)
(* ------------------------------------------------------------------ *)

let decomp_n = ref 16_384
let decomp_out = ref "BENCH_decomp.json"

let decomp_epsilon = 0.5

(* instances up to this size get the full conductance oracle pass *)
let decomp_oracle_limit = 300

let decomp_families seed =
  [
    ("grid", fun n -> Workloads.grid_of n);
    ("planar", fun n -> Generators.random_apollonian (max 4 n) ~seed);
    ("regular",
     fun n ->
       let n = max 4 (if n mod 2 = 0 then n else n + 1) in
       Generators.random_regular n 4 ~seed);
  ]

let decomp_bench () =
  note "\n### decomp-bench: spectral vs cut-matching expander decomposition\n";
  note "quality (inter-cluster edge fraction, oracle conductance) vs wall\n";
  note "time on a grid/planar/regular ladder; epsilon = %.2f\n" decomp_epsilon;
  let rungs =
    let top = max 64 !decomp_n in
    let candidates =
      List.sort_uniq compare
        (List.filter (fun x -> x >= 64) [ top / 64; top / 16; top / 4; top ])
    in
    if candidates = [] then [ top ] else candidates
  in
  let top = List.fold_left max 0 rungs in
  let v = verdicts () in
  let bench_one fname g n eng =
    let t0 = Obs.Clock.wall_s () in
    let d, st =
      match eng with
      | Core.Pipeline.Spectral_engine ->
          ( Spectral.Expander_decomposition.decompose ~pool:!pool g
              ~epsilon:decomp_epsilon,
            Flow.Decomp_engine.zero_stats )
      | Core.Pipeline.Cut_matching_engine ->
          Flow.Decomp_engine.decompose ~pool:!pool g ~epsilon:decomp_epsilon
    in
    let seconds = Obs.Clock.wall_s () -. t0 in
    let open Spectral.Expander_decomposition in
    let inter = List.length d.inter_edges in
    let frac = inter_fraction g d in
    let oracle_checked = Graph.n g <= decomp_oracle_limit in
    let oracle =
      if oracle_checked then begin
        let inter_ok, worst = verify ~power_iters:120 ~seed:0 ~pool:!pool g d in
        Some (inter_ok && worst +. 1e-9 >= d.phi, worst)
      end
      else None
    in
    let ename = Core.Pipeline.engine_name eng in
    let at = Printf.sprintf "%s/n=%d/%s" fname n ename in
    check v "inter_fraction_bound" ~at (frac <= 1.);
    Option.iter (fun (ok, _) -> check v "oracle_ok" ~at ok) oracle;
    let row =
      [
        fname; i (Graph.n g); ename; i d.k; pct frac;
        Printf.sprintf "%.3f" seconds;
        i st.Flow.Decomp_engine.games;
        i st.Flow.Decomp_engine.game_rounds;
        i st.Flow.Decomp_engine.flow_calls;
        i st.Flow.Decomp_engine.heuristic_cuts;
        (match oracle with
        | None -> "-"
        | Some (true, worst) -> Printf.sprintf "ok (%.4f)" worst
        | Some (false, worst) -> Printf.sprintf "FAIL (%.4f)" worst);
      ]
    in
    let json =
      Obs.Json.Obj
        ([
           ("family", Obs.Json.Str fname);
           ("n", Obs.Json.Int n);
           ("engine", Obs.Json.Str ename);
           ("seconds", Obs.Json.Float seconds);
           ("k", Obs.Json.Int d.k);
           ("inter_edges", Obs.Json.Int inter);
           ("inter_fraction", Obs.Json.Float frac);
           ("phi", Obs.Json.Float d.phi);
           ("tau", Obs.Json.Float d.tau);
           ("games", Obs.Json.Int st.Flow.Decomp_engine.games);
           ("game_rounds", Obs.Json.Int st.Flow.Decomp_engine.game_rounds);
           ("flow_calls", Obs.Json.Int st.Flow.Decomp_engine.flow_calls);
           ("heuristic_cuts",
            Obs.Json.Int st.Flow.Decomp_engine.heuristic_cuts);
           ("oracle_checked", Obs.Json.Bool oracle_checked);
         ]
        @
        match oracle with
        | None -> []
        | Some (ok, worst) ->
            [
              ("oracle_ok", Obs.Json.Bool ok);
              ("min_conductance", Obs.Json.Float worst);
            ])
    in
    ((json, row), seconds, frac)
  in
  (* the quality-vs-speed frontier at each family's top rung: how much
     slower, and how much more of the edge set cut, cut-matching is than
     spectral (@decomp-frontier bounds the ratio by 1 and the gap by 0) *)
  let results =
    List.concat_map
      (fun (fname, gen) ->
        List.concat_map
          (fun n ->
            let g = gen n in
            let sp, sp_s, sp_frac =
              bench_one fname g n Core.Pipeline.Spectral_engine
            in
            let cm, cm_s, cm_frac =
              bench_one fname g n Core.Pipeline.Cut_matching_engine
            in
            if n = top then begin
              let at = Printf.sprintf "%s/n=%d" fname n in
              claim v "frontier_time_ratio" ~at (cm_s /. Float.max 1e-9 sp_s);
              claim v "frontier_fraction_gap" ~at (cm_frac -. sp_frac)
            end;
            [ sp; cm ])
          rungs)
      (decomp_families 20220711)
  in
  print_table ~title:"decomp-bench: spectral vs cut-matching"
    ~header:
      [ "family"; "n"; "engine"; "k"; "inter"; "seconds"; "games"; "rounds";
        "flows"; "heur"; "oracle" ]
    (List.map snd results);
  let doc =
    Obs.Json.Obj
      ([
         ("schema", Obs.Json.Str "expander-decomp-bench");
         ("version", Obs.Json.Int 2);
         ("epsilon", Obs.Json.Float decomp_epsilon);
         ("n", Obs.Json.Int !decomp_n);
         ("results", Obs.Json.List (List.map fst results));
       ]
      @ verdict_fields v)
  in
  Obs.Export.write_file !decomp_out (Obs.Json.to_string_pretty doc);
  Printf.printf "[decomp-bench written to %s]\n" !decomp_out

(* ------------------------------------------------------------------ *)
(* route-bench: the expander-routing serving layer                     *)
(* ------------------------------------------------------------------ *)

let route_n = ref 16_384
let route_demands = ref 1_000_000
let route_out = ref "BENCH_route.json"

let route_epsilon = 0.5

(* rungs small enough to execute the planned paths on the simulator *)
let route_congest_limit = 1_100

(* hot-spot skew: this fraction of demands target one popular vertex *)
let route_hot_fraction = 0.9

let route_families seed =
  [
    ("grid", fun n -> Workloads.grid_of n);
    ("planar", fun n -> Generators.random_apollonian (max 4 n) ~seed);
  ]

let route_demand_batch g ~pattern ~count ~seed =
  let n = Graph.n g in
  let st = Random.State.make [| seed; Hashtbl.hash pattern |] in
  let hot = n / 2 in
  Array.init count (fun _ ->
      let src = Random.State.int st n in
      let dst =
        match pattern with
        | "hotspot" when Random.State.float st 1.0 < route_hot_fraction -> hot
        | _ -> Random.State.int st n
      in
      { Route.Service.src; dst; weight = 1 })

let route_percentile_of sorted p =
  let len = Array.length sorted in
  if len = 0 then 0
  else begin
    let rank = ((len * p) + 99) / 100 in
    sorted.(max 0 (min (len - 1) (rank - 1)))
  end

(* walk-router hot-spot allocation probe: every token converges on one
   leader (a complete graph is the worst-case inbox), at load L and 2L;
   linear receive-and-queue keeps minor words per token flat, the old
   quadratic inbox merge roughly doubled them *)
let route_walk_alloc_probe () =
  let g = Generators.complete 48 in
  let view = Distr.Cluster_view.whole g in
  let leaders = Distr.Leader_election.run view ~rounds:2 in
  let words_per_token load =
    let before = Gc.minor_words () in
    let r =
      Distr.Walk_routing.run view
        ~leader_of:leaders.Distr.Leader_election.leader_of
        ~tokens_of:(fun _ -> load)
        ~walk_len:64 ~seed:17 ~max_rounds:5000
    in
    let words = Gc.minor_words () -. before in
    ignore r;
    words /. float_of_int (load * Graph.n g)
  in
  let w1 = words_per_token 8 in
  let w2 = words_per_token 16 in
  (w1, w2, w2 /. Float.max 1e-9 w1)

(* the probe's linearity bound: doubling the load may not grow minor
   words per token by more than this factor *)
let route_alloc_ratio_limit = 1.5

let route_bench () =
  note "\n### route-bench: expander routing as a serving layer\n";
  note "preprocess a witness hierarchy per decomposition, then serve\n";
  note "random and hot-spot demand batches; epsilon = %.2f\n" route_epsilon;
  let rungs =
    let top = max 64 !route_n in
    let candidates =
      List.sort_uniq compare
        (List.filter (fun x -> x >= 64) [ top / 16; top / 4; top ])
    in
    if candidates = [] then [ top ] else candidates
  in
  let top = List.fold_left max 0 rungs in
  let v = verdicts () in
  (* rungs executed on the simulator; at least one must be *)
  let simulated = ref 0 in
  let bench_one fname g n eng =
    let ename = Core.Pipeline.engine_name eng in
    let at = Printf.sprintf "%s/n=%d/%s" fname n ename in
    let p =
      Core.Pipeline.prepare ~mode:charged ~engine:eng ~pool:!pool g
        ~epsilon:route_epsilon ~seed:20220711
    in
    let t0 = Obs.Clock.wall_s () in
    let svc = Core.Pipeline.routing_service p in
    let pre_s = Obs.Clock.wall_s () -. t0 in
    let hinfo = Route.Hierarchy.info (Route.Service.hierarchy svc) in
    let count =
      if n = top then !route_demands
      else max 20_000 (!route_demands / 50)
    in
    (* one serve per pattern x selection policy: the v2 axis comparing
       round-robin cursors against least-loaded (power-of-two-choices)
       portal and entry selection on the same demand batch *)
    let serve_pattern pattern (policy, pname) =
      let ds = route_demand_batch g ~pattern ~count ~seed:(n + 5) in
      let t0 = Obs.Clock.wall_s () in
      let s = Route.Service.serve ~policy svc ds in
      let secs = Obs.Clock.wall_s () -. t0 in
      let dps = float_of_int s.Route.Service.demands /. Float.max 1e-9 secs in
      let at = Printf.sprintf "%s/%s/%s" at pattern pname in
      check v "delivered_accounted" ~at (s.delivered + s.failed = s.demands);
      (* every family is connected: nothing may be unroutable *)
      check v "no_failed" ~at (s.failed = 0);
      check v "rounds_ordered" ~at
        (s.rounds_p50 <= s.rounds_p99 && s.rounds_p99 <= s.rounds_max);
      check v "congestion_max_bound" ~at
        (s.congestion_max <= s.congestion_total);
      check v "demands_per_sec_positive" ~at (dps > 0.);
      if n = top then claim v "top_rung_demands" ~at (float_of_int s.demands);
      ( s,
        dps,
        Obs.Json.Obj
          [
            ("pattern", Obs.Json.Str pattern);
            ("policy", Obs.Json.Str pname);
            ("demands", Obs.Json.Int s.Route.Service.demands);
            ("delivered", Obs.Json.Int s.Route.Service.delivered);
            ("failed", Obs.Json.Int s.Route.Service.failed);
            ("fallbacks", Obs.Json.Int s.Route.Service.fallbacks);
            ("rounds_p50", Obs.Json.Int s.Route.Service.rounds_p50);
            ("rounds_p99", Obs.Json.Int s.Route.Service.rounds_p99);
            ("rounds_max", Obs.Json.Int s.Route.Service.rounds_max);
            ("congestion_max", Obs.Json.Int s.Route.Service.congestion_max);
            ("congestion_total", Obs.Json.Int s.Route.Service.congestion_total);
            ("seconds", Obs.Json.Float secs);
            ("demands_per_sec", Obs.Json.Float dps);
          ] )
    in
    let rr = (Route.Hierarchy.Round_robin, "round_robin") in
    let ll = (Route.Hierarchy.Least_loaded, "least_loaded") in
    let rand_rr, _, rand_rr_json = serve_pattern "random" rr in
    let rand_s, rand_dps, rand_ll_json = serve_pattern "random" ll in
    let hot_rr, _, hot_rr_json = serve_pattern "hotspot" rr in
    let hot_ll, _, hot_ll_json = serve_pattern "hotspot" ll in
    List.iter
      (fun ( pattern,
             (s_rr : Route.Service.summary),
             (s_ll : Route.Service.summary) ) ->
        let at = at ^ "/" ^ pattern in
        check v "policies_agree" ~at (s_rr.delivered = s_ll.delivered);
        (* least-loaded must never be materially worse than the round-robin
           baseline on the same batch. The slack absorbs epoch-snapshot
           herding: within an epoch every task diverts against the same
           stale congestion, which can overshoot on configs whose baseline
           is already near the floor; the 2x win is a top-rung claim *)
        check v "least_loaded_bound" ~at
          (float_of_int s_ll.congestion_max
          <= (float_of_int s_rr.congestion_max *. 1.25) +. 1.))
      [ ("random", rand_rr, rand_s); ("hotspot", hot_rr, hot_ll) ];
    (* ship the plans in CONGEST rounds where tractable and check the
       deliveries against the planner *)
    let congest_json =
      if n > route_congest_limit then Obs.Json.Null
      else begin
        let cds =
          route_demand_batch g ~pattern:"random" ~count:(min 2_000 count)
            ~seed:(n + 9)
        in
        let r = Route.Service.serve_congest svc cds ~max_rounds:40_000 in
        let arr =
          Array.of_list
            (List.filter (fun x -> x >= 0)
               (Array.to_list
                  (Array.map Fun.id
                     r.Route.Service.routed.Distr.Witness_routing.rounds_of)))
        in
        Array.sort compare arr;
        let last = r.Route.Service.routed.Distr.Witness_routing.last_round in
        let p50 = route_percentile_of arr 50 in
        let p99 = route_percentile_of arr 99 in
        let at = at ^ "/congest" in
        check v "sim_rounds_ordered" ~at (p50 <= p99 && p99 <= last);
        check v "planner_match" ~at r.Route.Service.match_planner;
        incr simulated;
        Obs.Json.Obj
          [
            ("demands", Obs.Json.Int (Array.length cds));
            ("rounds", Obs.Json.Int last);
            ("rounds_p50", Obs.Json.Int p50);
            ("rounds_p99", Obs.Json.Int p99);
            ( "planner_match",
              Obs.Json.Bool r.Route.Service.match_planner );
          ]
      end
    in
    let row =
      [
        fname; i n; ename;
        Printf.sprintf "%.3f" pre_s;
        i hinfo.Route.Hierarchy.clusters;
        i hinfo.Route.Hierarchy.shortcuts;
        i rand_s.Route.Service.rounds_p50;
        i rand_s.Route.Service.rounds_p99;
        i hot_rr.Route.Service.congestion_max;
        i hot_ll.Route.Service.congestion_max;
        Printf.sprintf "%.0fk/s" (rand_dps /. 1e3);
      ]
    in
    let json =
      Obs.Json.Obj
        [
          ("family", Obs.Json.Str fname);
          ("n", Obs.Json.Int n);
          ("engine", Obs.Json.Str ename);
          ("preprocess_seconds", Obs.Json.Float pre_s);
          ("clusters", Obs.Json.Int hinfo.Route.Hierarchy.clusters);
          ("shortcuts", Obs.Json.Int hinfo.Route.Hierarchy.shortcuts);
          ("tree_height", Obs.Json.Int hinfo.Route.Hierarchy.tree_height);
          ( "patterns",
            Obs.Json.List
              [ rand_rr_json; rand_ll_json; hot_rr_json; hot_ll_json ] );
          ("congest", congest_json);
        ]
    in
    let hot_win =
      float_of_int hot_rr.Route.Service.congestion_max
      /. Float.max 1. (float_of_int hot_ll.Route.Service.congestion_max)
    in
    ((json, row), hot_win)
  in
  (* per family, the best hot-spot congestion win (round-robin over
     least-loaded congestion_max) among the top rung's configurations *)
  let results =
    List.concat_map
      (fun (fname, gen) ->
        let served =
          List.concat_map
            (fun n ->
              let g = gen n in
              List.map
                (fun eng -> (n, bench_one fname g n eng))
                [ Core.Pipeline.Spectral_engine;
                  Core.Pipeline.Cut_matching_engine ])
            rungs
        in
        let best =
          List.fold_left
            (fun acc (n, (_, win)) -> if n = top then Float.max acc win else acc)
            0. served
        in
        claim v "hotspot_congestion_win"
          ~at:(Printf.sprintf "%s/n=%d" fname top)
          best;
        List.map (fun (_, (entry, _)) -> entry) served)
      (route_families 20220711)
  in
  check v "simulator_executed" ~at:"results" (!simulated > 0);
  (* jobs-scaling ladder: the same top-rung batch served by the
     epoch-parallel planner at increasing pool sizes; the summary must
     be byte-identical at every rung (the epoch snapshot contract).
     Speedups are what this host's cores allow — a single-core CI
     container reports flat-or-worse wall clock, see EXPERIMENTS.md *)
  let ladder =
    let n = top in
    let g = Workloads.grid_of n in
    let p =
      Core.Pipeline.prepare ~mode:charged
        ~engine:Core.Pipeline.Cut_matching_engine ~pool:!pool g
        ~epsilon:route_epsilon ~seed:20220711
    in
    let ds = route_demand_batch g ~pattern:"random" ~count:!route_demands
        ~seed:(n + 5) in
    let base = ref None in
    let base_dps = ref 0. in
    let best_speedup = ref 0. in
    let rungs =
      List.map
        (fun jobs ->
          let jp = Parallel.Pool.create ~jobs () in
          let svc = Core.Pipeline.routing_service ~pool:jp p in
          let t0 = Obs.Clock.wall_s () in
          let s = Route.Service.serve svc ds in
          let secs = Obs.Clock.wall_s () -. t0 in
          let dps = float_of_int s.Route.Service.demands /. Float.max 1e-9 secs in
          let equal =
            match !base with
            | None ->
                base := Some s;
                base_dps := dps;
                true
            | Some b -> s = b
          in
          note "jobs %d: %.2fs (%.0fk demands/s)%s\n" jobs secs (dps /. 1e3)
            (if equal then "" else "  ** SUMMARY MISMATCH **");
          let speedup = dps /. Float.max 1e-9 !base_dps in
          let at = Printf.sprintf "jobs=%d" jobs in
          check v "summary_equal" ~at equal;
          check v "demands_per_sec_positive" ~at (dps > 0.);
          best_speedup := Float.max !best_speedup speedup;
          Obs.Json.Obj
            [
              ("jobs", Obs.Json.Int jobs);
              ("seconds", Obs.Json.Float secs);
              ("demands_per_sec", Obs.Json.Float dps);
              ("summary_equal", Obs.Json.Bool equal);
              ("speedup_vs_j1", Obs.Json.Float speedup);
            ])
        [ 1; 2; 4 ]
    in
    (* wall-clock scaling needs a multi-core host: reported, gated by no
       committed rule *)
    claim v "best_jobs_speedup" ~at:"jobs_ladder" !best_speedup;
    rungs
  in
  let w1, w2, ratio = route_walk_alloc_probe () in
  note "walk-router hot-spot alloc: %.1f words/token at 1x, %.1f at 2x (ratio %.2f)\n"
    w1 w2 ratio;
  check v "walk_alloc_ratio_bound" ~at:"walk_router"
    (ratio <= route_alloc_ratio_limit);
  print_table ~title:"route-bench: witness-hierarchy serving"
    ~header:
      [ "family"; "n"; "engine"; "pre(s)"; "k"; "shortcuts"; "p50"; "p99";
        "cmax rr"; "cmax ll"; "rate" ]
    (List.map snd results);
  let doc =
    Obs.Json.Obj
      ([
         ("schema", Obs.Json.Str "expander-route-bench");
         ("version", Obs.Json.Int 5);
         ("epsilon", Obs.Json.Float route_epsilon);
         ("n", Obs.Json.Int !route_n);
         ("demands", Obs.Json.Int !route_demands);
         ("results", Obs.Json.List (List.map fst results));
         ("jobs_ladder", Obs.Json.List ladder);
         ( "walk_router",
           Obs.Json.Obj
             [
               ("words_per_token_1x", Obs.Json.Float w1);
               ("words_per_token_2x", Obs.Json.Float w2);
               ("alloc_ratio", Obs.Json.Float ratio);
             ] );
       ]
      @ verdict_fields v)
  in
  Obs.Export.write_file !route_out (Obs.Json.to_string_pretty doc);
  Printf.printf "[route-bench written to %s]\n" !route_out
