open Sparse_graph
open Spectral

let checkb = Alcotest.(check bool)
let checkf msg ~eps expected got =
  Alcotest.(check (float eps)) msg expected got

(* ------------------------------------------------------------------ *)
(* Conductance                                                         *)
(* ------------------------------------------------------------------ *)

let test_volume_boundary () =
  let g = Generators.cycle 6 in
  let mask = Conductance.mask_of_list 6 [ 0; 1; 2 ] in
  Alcotest.(check int) "volume" 6 (Conductance.volume g mask);
  Alcotest.(check int) "boundary" 2 (Conductance.boundary g mask);
  checkf "conductance" ~eps:1e-9 (2. /. 6.) (Conductance.of_cut g mask)

let test_trivial_cut_zero () =
  let g = Generators.cycle 4 in
  checkf "empty" ~eps:1e-9 0. (Conductance.of_cut g (Array.make 4 false));
  checkf "full" ~eps:1e-9 0. (Conductance.of_cut g (Array.make 4 true))

let test_exact_complete () =
  (* K4: best cut is 2 vs 2 vertices: boundary 4, min vol 6 -> 2/3 *)
  checkf "Phi(K4)" ~eps:1e-9 (2. /. 3.) (Conductance.exact (Generators.complete 4))

let test_exact_cycle () =
  (* C8: best cut is an arc of 4: boundary 2, vol 8 -> 1/4 *)
  checkf "Phi(C8)" ~eps:1e-9 0.25 (Conductance.exact (Generators.cycle 8))

let test_exact_path () =
  (* P6: cut in the middle: boundary 1, min vol 5 -> 1/5 *)
  checkf "Phi(P6)" ~eps:1e-9 (1. /. 5.) (Conductance.exact (Generators.path 6))

let test_exact_barbell_small () =
  let g = Generators.barbell 4 1 in
  (* bridge cut: boundary 1, each side vol = 2*C(4,2) + 1 endpoints ... just
     assert it is far below the clique conductance *)
  let phi = Conductance.exact g in
  checkb "barbell has low conductance" true (phi < 0.1)

let test_exact_disconnected () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  checkf "disconnected Phi = 0" ~eps:1e-9 0. (Conductance.exact g)

let test_exact_limit () =
  Alcotest.check_raises "too large"
    (Invalid_argument "Conductance.exact: graph too large for enumeration")
    (fun () -> ignore (Conductance.exact (Generators.cycle 30)))

let test_sparsity () =
  let g = Generators.cycle 6 in
  let mask = Conductance.mask_of_list 6 [ 0; 1 ] in
  checkf "sparsity" ~eps:1e-9 1. (Conductance.sparsity_of_cut g mask)

(* ------------------------------------------------------------------ *)
(* Random walks                                                        *)
(* ------------------------------------------------------------------ *)

let test_stationary_sums_to_one () =
  let g = Generators.random_apollonian 30 ~seed:1 in
  let pi = Random_walk.stationary g in
  checkf "sum pi = 1" ~eps:1e-9 1. (Array.fold_left ( +. ) 0. pi)

let test_step_preserves_mass () =
  let g = Generators.grid 4 4 in
  let p = Random_walk.distribution g 0 7 in
  checkf "mass preserved" ~eps:1e-9 1. (Array.fold_left ( +. ) 0. p)

let test_stationary_is_fixed_point () =
  let g = Generators.random_apollonian 20 ~seed:2 in
  let pi = Random_walk.stationary g in
  let pi' = Random_walk.step g pi in
  Array.iteri (fun v x -> checkf "fixed point" ~eps:1e-9 pi.(v) x) pi'

let test_walk_converges_complete () =
  let g = Generators.complete 8 in
  checkb "K8 mixes fast" true
    (match Random_walk.mixing_time g ~max_t:100 with
    | Some t -> t <= 30
    | None -> false)

let test_mixing_monotone_in_conductance () =
  (* expander-ish (complete) mixes faster than a cycle of the same size *)
  let tk = Random_walk.mixing_time (Generators.complete 12) ~max_t:2000 in
  let tc = Random_walk.mixing_time (Generators.cycle 12) ~max_t:2000 in
  match (tk, tc) with
  | Some a, Some b -> checkb "complete mixes faster" true (a < b)
  | _ -> Alcotest.fail "walks did not mix within bound"

let test_mixing_unmixed_none () =
  (* disconnected graph never mixes *)
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  checkb "never mixes" true (Random_walk.mixing_time g ~max_t:50 = None)

(* Regression: the mixing criterion |p(u) - pi(u)| <= pi(u)/n has a zero
   threshold at degree-0 vertices, so any graph with an isolated vertex
   reported "never mixes". The check is now restricted to the stationary
   support, and mixing_time skips isolated start vertices (the walk from
   one never moves). *)
let test_mixing_ignores_isolated_vertices () =
  (* one edge plus an isolated vertex: the walk on the edge component is
     already stationary after one step *)
  let g = Graph.of_edges 3 [ (0, 1) ] in
  checkb "is_mixed on the support" true
    (Random_walk.is_mixed g (Random_walk.distribution g 0 1));
  (match Random_walk.mixing_time g ~max_t:10 with
  | Some t -> Alcotest.(check int) "mixes in one step" 1 t
  | None -> Alcotest.fail "graph with isolated vertex reported as unmixed");
  (* the isolated start is skipped, not treated as mixing trivially *)
  checkb "mixing_time_from isolated start never mixes" true
    (Random_walk.mixing_time_from g 2 ~max_t:10 = None)

let test_sample_walk_valid () =
  let g = Generators.grid 5 5 in
  let rng = Random.State.make [| 7 |] in
  let visits = Random_walk.sample_walk g ~start:12 ~steps:50 ~rng in
  Alcotest.(check int) "length" 51 (Array.length visits);
  Alcotest.(check int) "start" 12 visits.(0);
  for i = 1 to 50 do
    checkb "moves along edges or stays" true
      (visits.(i) = visits.(i - 1) || Graph.mem_edge g visits.(i) visits.(i - 1))
  done

(* ------------------------------------------------------------------ *)
(* Sweep cuts                                                          *)
(* ------------------------------------------------------------------ *)

let test_fiedler_orthogonal () =
  let g = Generators.grid 4 4 in
  let embedding, lambda2 = Sweep_cut.fiedler g ~iters:300 ~seed:3 in
  (* embedding is D^{-1/2} x with x orthogonal to d^{1/2}: so
     sum_v deg(v) * embedding(v) = 0 *)
  let s = ref 0. in
  Array.iteri
    (fun v e -> s := !s +. (float_of_int (Graph.degree g v) *. e))
    embedding;
  checkf "degree-weighted mean zero" ~eps:1e-6 0. !s;
  checkb "lambda2 in (0, 2]" true (lambda2 > 0. && lambda2 <= 2.)

let test_sweep_finds_barbell_bridge () =
  let g = Generators.barbell 8 2 in
  let cut = Sweep_cut.best_cut g ~iters:400 ~seed:4 in
  (* the bridge cut has conductance ~ 1 / (2 * C(8,2) + 1); sweep should get
     within a factor of ~2 of the optimum *)
  checkb "found a low cut" true (cut.conductance < 0.05)

let test_sweep_on_disconnected_graph () =
  let g = Graph_ops.disjoint_union (Generators.complete 5) (Generators.complete 5) in
  let cut = Sweep_cut.best_cut g ~iters:300 ~seed:5 in
  checkf "zero cut found" ~eps:1e-9 0. cut.conductance

let test_sweep_vs_exact_cheeger () =
  (* on small graphs: exact Phi <= sweep conductance (sweep is a real cut) *)
  List.iter
    (fun (name, g) ->
      let phi = Conductance.exact g in
      let cut = Sweep_cut.best_cut g ~iters:400 ~seed:6 in
      checkb (name ^ ": sweep upper-bounds Phi") true
        (cut.conductance >= phi -. 1e-9))
    [
      ("C10", Generators.cycle 10);
      ("P9", Generators.path 9);
      ("K7", Generators.complete 7);
      ("grid3x4", Generators.grid 3 4);
      ("K33", Generators.complete_bipartite 3 3);
    ]

let test_sweep_near_optimal_on_cycle () =
  let g = Generators.cycle 16 in
  let cut = Sweep_cut.best_cut g ~iters:600 ~seed:7 in
  (* optimal is 2/16 = 0.125; spectral sweep on a cycle is optimal *)
  checkb "near optimal" true (cut.conductance <= 0.2)

let test_certified_lower_bound () =
  let g = Generators.complete 8 in
  let cut = Sweep_cut.best_cut g ~iters:400 ~seed:8 in
  let lb = Sweep_cut.certified_lower_bound cut in
  let phi = Conductance.exact g in
  checkb "lower bound below true Phi (converged)" true (lb <= phi +. 0.05)

(* Regression: Array.sort is unstable, so ties between equal embedding
   values made the returned cut depend on sort internals. Ties now break
   by vertex id; these cuts are pinned exactly. *)
let test_sweep_tie_break_by_vertex_id () =
  (* constant embedding: the sweep order is decided entirely by the
     tie-break, so the best prefix is the first three ids *)
  let g = Generators.cycle 6 in
  let cut = Sweep_cut.sweep g (Array.make 6 0.) in
  Alcotest.(check (array bool))
    "constant embedding cuts the lowest ids"
    [| true; true; true; false; false; false |]
    cut.side;
  checkf "arc conductance" ~eps:1e-9 (2. /. 6.) cut.conductance;
  (* two-level embedding with ties inside each level: among the equally
     good prefixes the id order makes {1} the deterministic winner *)
  let g4 = Generators.cycle 4 in
  let cut4 = Sweep_cut.sweep g4 [| 1.; 0.; 1.; 0. |] in
  Alcotest.(check (array bool))
    "equal values sweep in id order"
    [| false; true; false; false |]
    cut4.side

(* Regression: lambda2 used to be a NaN placeholder on cuts that came
   from non-spectral sweep orders (BFS, tree, plain sweep), and the
   NaN leaked into certified lower bounds and reports. The field is now a
   [float option]: [Some] only when a converged spectral embedding backs
   the estimate. *)
let test_lambda2_only_from_spectral_embeddings () =
  let g = Generators.grid 4 4 in
  (match (Sweep_cut.best_cut g ~iters:300 ~seed:12).lambda2 with
  | Some l -> checkb "spectral cut reports its eigenvalue" true (l > 0. && l <= 2.)
  | None -> Alcotest.fail "spectral cut must carry lambda2");
  checkb "plain sweep has none" true
    ((Sweep_cut.sweep g (Array.init 16 float_of_int)).lambda2 = None);
  checkb "bfs sweep has none" true ((Sweep_cut.bfs_sweep g).lambda2 = None);
  checkb "tree cut has none" true
    ((Sweep_cut.tree_cut (Generators.random_tree 20 ~seed:13)).lambda2 = None)

let test_lambda2_lower_bound_branches () =
  let mk lambda2 =
    { Sweep_cut.side = [| true; false |]; conductance = 0.5; lambda2 }
  in
  checkf "None falls back to c^2/4" ~eps:1e-9 0.0625
    (Sweep_cut.certified_lower_bound (mk None));
  checkf "Some uses max(l/2, c^2/4)" ~eps:1e-9 0.2
    (Sweep_cut.certified_lower_bound (mk (Some 0.4)));
  checkf "small lambda2 loses to the sweep bound" ~eps:1e-9 0.0625
    (Sweep_cut.certified_lower_bound (mk (Some 0.01)));
  (* no producer can leak a non-finite bound *)
  let g = Generators.barbell 6 1 in
  List.iter
    (fun (name, cut) ->
      checkb (name ^ " bound is finite") true
        (Float.is_finite (Sweep_cut.certified_lower_bound cut)))
    [
      ("bfs", Sweep_cut.bfs_sweep g);
      ("tree", Sweep_cut.tree_cut g);
      ("spectral", Sweep_cut.best_cut g ~iters:200 ~seed:14);
      ("combined", Sweep_cut.combined_cut g ~iters:200 ~seed:14);
    ]

let test_bfs_sweep_path () =
  (* BFS sweep finds the middle cut of a path exactly *)
  let g = Generators.path 20 in
  let cut = Sweep_cut.bfs_sweep g in
  checkf "optimal path cut" ~eps:1e-9 (Conductance.exact (Generators.path 20))
    (Conductance.exact (Generators.path 20));
  checkb "near optimal" true (cut.conductance <= 2. /. 19.)

let test_tree_cut_exact_on_trees () =
  (* on a tree the optimum cut is a single edge; tree_cut finds one *)
  for seed = 0 to 4 do
    let g = Generators.random_tree 40 ~seed in
    let cut = Sweep_cut.tree_cut g in
    let boundary = Conductance.boundary g cut.side in
    Alcotest.(check int) "single edge boundary" 1 boundary;
    checkf "conductance consistent" ~eps:1e-9
      (Conductance.of_cut g cut.side)
      cut.conductance
  done

let test_tree_cut_with_extra_edges () =
  let g = Generators.add_random_edges (Generators.random_tree 30 ~seed:41) 8 ~seed:41 in
  let cut = Sweep_cut.tree_cut g in
  checkf "reported value matches mask" ~eps:1e-9
    (Conductance.of_cut g cut.side)
    cut.conductance

let test_combined_cut_dominates () =
  (* combined picks the min of its candidates *)
  List.iter
    (fun (name, g) ->
      let c = Sweep_cut.combined_cut g ~iters:150 ~seed:5 in
      let s = Sweep_cut.best_cut g ~iters:150 ~seed:5 in
      let b = Sweep_cut.bfs_sweep g in
      checkb (name ^ " combined <= spectral") true
        (c.conductance <= s.conductance +. 1e-9);
      checkb (name ^ " combined <= bfs") true
        (c.conductance <= b.conductance +. 1e-9))
    [
      ("path", Generators.path 40);
      ("tree", Generators.random_tree 50 ~seed:42);
      ("grid", Generators.grid 7 7);
      ("barbell", Generators.barbell 8 2);
    ]

(* ------------------------------------------------------------------ *)
(* Expander decomposition                                              *)
(* ------------------------------------------------------------------ *)

let check_decomposition ?(params = Expander_decomposition.default_params) g eps =
  let d = Expander_decomposition.decompose ~params g ~epsilon:eps in
  (* labels cover 0..k-1 *)
  Array.iter
    (fun l -> checkb "label in range" true (l >= 0 && l < d.k))
    d.labels;
  let inter_ok, worst = Expander_decomposition.verify ~params g d in
  checkb "inter-cluster fraction within epsilon" true inter_ok;
  (* every accepted cluster's measured conductance should be >= tau (sweep
     value it was accepted at) up to re-estimation noise; we check the
     certified target phi *)
  checkb
    (Printf.sprintf "cluster conductance %.4f >= phi %.4f" worst d.phi)
    true
    (worst >= d.phi -. 1e-9);
  d

let test_decompose_grid () =
  ignore (check_decomposition (Generators.grid 8 8) 0.3)

let test_decompose_apollonian () =
  ignore (check_decomposition (Generators.random_apollonian 150 ~seed:9) 0.25)

let test_decompose_tree () =
  ignore (check_decomposition (Generators.random_tree 100 ~seed:10) 0.3)

let test_decompose_barbell_splits_bridge () =
  let g = Generators.barbell 10 2 in
  let d = Expander_decomposition.decompose g ~epsilon:0.2 in
  (* the two cliques must end in different clusters *)
  checkb "cliques separated" true (d.labels.(0) <> d.labels.(Graph.n g - 1))

let test_decompose_expander_stays_whole () =
  (* K16 is an excellent expander: no cut should happen at small epsilon *)
  let g = Generators.complete 16 in
  let d = Expander_decomposition.decompose g ~epsilon:0.3 in
  Alcotest.(check int) "one cluster" 1 d.k

let test_decompose_disconnected () =
  let g =
    Graph_ops.disjoint_union (Generators.cycle 8) (Generators.complete 5)
  in
  let d = check_decomposition g 0.3 in
  checkb "at least two clusters" true (d.k >= 2);
  (* no inter-cluster edge can exist between components *)
  Alcotest.(check int) "no phantom inter edges counted against epsilon" 0
    (List.length
       (List.filter
          (fun e ->
            let u, v = Graph.endpoints g e in
            (u < 8) <> (v < 8))
          d.inter_edges))

let test_decompose_epsilon_monotone () =
  (* smaller epsilon -> at most as many inter-cluster edges allowed;
     verify both settings satisfy their own budget *)
  let g = Generators.random_apollonian 120 ~seed:11 in
  List.iter
    (fun eps -> ignore (check_decomposition g eps))
    [ 0.5; 0.3; 0.15 ]

let test_decompose_rejects_bad_epsilon () =
  let g = Generators.cycle 5 in
  Alcotest.check_raises "eps = 0"
    (Invalid_argument "Expander_decomposition.decompose: need 0 < epsilon < 1")
    (fun () -> ignore (Expander_decomposition.decompose g ~epsilon:0.))

let test_singleton_and_empty () =
  let d = Expander_decomposition.decompose (Graph.empty 5) ~epsilon:0.5 in
  Alcotest.(check int) "five singleton clusters" 5 d.k;
  let d1 = Expander_decomposition.decompose (Graph.empty 1) ~epsilon:0.5 in
  Alcotest.(check int) "one cluster" 1 d1.k

(* Pins the whole record (labels, k, inter edges, thresholds by their
   exact bits, every witness field) as one digest, so a change to the
   recursion that moves any of it fails here, not only jobs-1 = jobs-4. *)
let decomposition_digest (d : Expander_decomposition.t) =
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
    (fun (w : Expander_decomposition.cluster_witness) ->
      ints (Array.of_list w.w_path);
      List.iter
        (fun (pairs, embeds) ->
          Array.iter (fun (x, y) -> Printf.bprintf b "%d-%d," x y) pairs;
          Array.iter ints embeds;
          Buffer.add_char b ';')
        w.w_matchings;
      Printf.bprintf b "%d %d %s|" w.w_congestion w.w_dilation w.w_source)
    d.witnesses;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_decompose_golden () =
  List.iter
    (fun (name, g, epsilon, expected) ->
      let d = Expander_decomposition.decompose g ~epsilon in
      Alcotest.(check string) name expected (decomposition_digest d))
    [
      ( "grid 64x64",
        Generators.grid 64 64,
        0.5,
        "1ce7b38bbdd3ef3e72ab6a95e0325e76" );
      ( "barbell 10 2",
        Generators.barbell 10 2,
        0.2,
        "0a99c76aca6661c2f7163b1a685e7436" );
      ( "apollonian 300",
        Generators.random_apollonian 300 ~seed:12,
        0.25,
        "c113c20912d9df333839dde617d1d9a0" );
      ( "barbell + 3 isolated",
        Graph_ops.disjoint_union (Generators.barbell 10 2) (Graph.empty 3),
        0.2,
        "de8b8db2b7e9210090b5d2f36e460916" );
    ]

let test_bfs_ball_baseline () =
  let g = Generators.grid 6 6 in
  let d = Expander_decomposition.bfs_ball_baseline g ~radius:2 in
  Array.iter (fun l -> checkb "labelled" true (l >= 0 && l < d.k)) d.labels;
  checkb "multiple clusters" true (d.k >= 2)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let arb_connected_graph =
  (* random connected graph: random tree plus extra random edges *)
  QCheck.make
    ~print:(fun (n, seed, extra) ->
      Printf.sprintf "n=%d seed=%d extra=%d" n seed extra)
    QCheck.Gen.(
      map3
        (fun n seed extra -> (n, seed, extra))
        (int_range 4 40) (int_range 0 1000) (int_range 0 20))

let build_connected (n, seed, extra) =
  Generators.add_random_edges (Generators.random_tree n ~seed) extra ~seed

let prop_walk_mass =
  QCheck.Test.make ~name:"lazy walk preserves probability mass" ~count:100
    arb_connected_graph (fun input ->
      let g = build_connected input in
      let p = Random_walk.distribution g 0 5 in
      abs_float (Array.fold_left ( +. ) 0. p -. 1.) < 1e-9)

let prop_sweep_is_real_cut =
  QCheck.Test.make ~name:"sweep conductance equals its own cut's conductance"
    ~count:60 arb_connected_graph (fun input ->
      let g = build_connected input in
      let cut = Sweep_cut.best_cut g ~iters:150 ~seed:1 in
      let recomputed = Conductance.of_cut g cut.side in
      abs_float (recomputed -. cut.conductance) < 1e-9)

let prop_decomposition_budget =
  QCheck.Test.make ~name:"decomposition respects the epsilon edge budget"
    ~count:60
    QCheck.(pair arb_connected_graph (int_range 1 3))
    (fun (input, e) ->
      let g = build_connected input in
      let epsilon = float_of_int e /. 4. in
      let d = Expander_decomposition.decompose g ~epsilon in
      float_of_int (List.length d.inter_edges)
      <= (epsilon *. float_of_int (Graph.m g)) +. 1e-9)

let prop_decomposition_covers =
  QCheck.Test.make ~name:"decomposition labels partition the vertex set"
    ~count:60 arb_connected_graph (fun input ->
      let g = build_connected input in
      let d = Expander_decomposition.decompose g ~epsilon:0.3 in
      Array.for_all (fun l -> l >= 0 && l < d.k) d.labels)

let prop_exact_phi_below_any_cut =
  QCheck.Test.make ~name:"exact Phi lower-bounds random cuts" ~count:100
    QCheck.(pair arb_connected_graph (list (int_bound 39)))
    (fun (input, vs) ->
      let n, _, _ = input in
      let g = build_connected input in
      if n > 12 then true
      else begin
        let phi = Conductance.exact g in
        let mask = Conductance.mask_of_list n (List.filter (fun v -> v < n) vs) in
        let c = Conductance.of_cut g mask in
        c = 0. || phi <= c +. 1e-9
      end)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_walk_mass;
      prop_sweep_is_real_cut;
      prop_decomposition_budget;
      prop_decomposition_covers;
      prop_exact_phi_below_any_cut;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "spectral"
    [
      ( "conductance",
        [
          tc "volume and boundary" test_volume_boundary;
          tc "trivial cuts are zero" test_trivial_cut_zero;
          tc "exact Phi of K4" test_exact_complete;
          tc "exact Phi of C8" test_exact_cycle;
          tc "exact Phi of P6" test_exact_path;
          tc "barbell low conductance" test_exact_barbell_small;
          tc "disconnected graph" test_exact_disconnected;
          tc "enumeration size guard" test_exact_limit;
          tc "sparsity" test_sparsity;
        ] );
      ( "random_walk",
        [
          tc "stationary sums to one" test_stationary_sums_to_one;
          tc "step preserves mass" test_step_preserves_mass;
          tc "stationary is fixed point" test_stationary_is_fixed_point;
          tc "complete graph mixes fast" test_walk_converges_complete;
          tc "mixing reflects conductance" test_mixing_monotone_in_conductance;
          tc "disconnected never mixes" test_mixing_unmixed_none;
          tc "isolated vertices excluded from mixing"
            test_mixing_ignores_isolated_vertices;
          tc "sampled walk follows edges" test_sample_walk_valid;
        ] );
      ( "sweep_cut",
        [
          tc "fiedler orthogonality" test_fiedler_orthogonal;
          tc "finds barbell bridge" test_sweep_finds_barbell_bridge;
          tc "zero cut on disconnected" test_sweep_on_disconnected_graph;
          tc "sweep upper-bounds exact Phi" test_sweep_vs_exact_cheeger;
          tc "near-optimal on cycle" test_sweep_near_optimal_on_cycle;
          tc "certified lower bound sane" test_certified_lower_bound;
          tc "tie-break by vertex id" test_sweep_tie_break_by_vertex_id;
          tc "lambda2 only from spectral embeddings"
            test_lambda2_only_from_spectral_embeddings;
          tc "lambda2 lower-bound branches" test_lambda2_lower_bound_branches;
          tc "bfs sweep on path" test_bfs_sweep_path;
          tc "tree cut exact on trees" test_tree_cut_exact_on_trees;
          tc "tree cut on augmented trees" test_tree_cut_with_extra_edges;
          tc "combined cut dominates" test_combined_cut_dominates;
        ] );
      ( "expander_decomposition",
        [
          tc "grid" test_decompose_grid;
          tc "apollonian" test_decompose_apollonian;
          tc "tree" test_decompose_tree;
          tc "barbell splits at bridge" test_decompose_barbell_splits_bridge;
          tc "expander stays whole" test_decompose_expander_stays_whole;
          tc "disconnected input" test_decompose_disconnected;
          tc "several epsilons" test_decompose_epsilon_monotone;
          tc "epsilon validation" test_decompose_rejects_bad_epsilon;
          tc "degenerate graphs" test_singleton_and_empty;
          tc "bfs ball baseline" test_bfs_ball_baseline;
          tc "golden output digest" test_decompose_golden;
        ] );
      ("properties", qcheck_cases);
    ]
