open Sparse_graph
open Decomp

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Partition                                                           *)
(* ------------------------------------------------------------------ *)

let test_partition_of_labels () =
  let g = Generators.path 4 in
  let p = Partition.of_labels g [| 7; 7; 3; 3 |] in
  check "k" 2 p.k;
  check "renumbered" 0 p.labels.(0);
  check "renumbered second" 1 p.labels.(2);
  check "one crossing edge" 1 (List.length p.inter_edges);
  checkb "valid" true (Partition.is_valid g p);
  Alcotest.(check (float 1e-9)) "cut fraction" (1. /. 3.)
    (Partition.cut_fraction g p)

let test_partition_diameter () =
  let g = Generators.cycle 8 in
  let p = Partition.of_labels g (Array.init 8 (fun v -> v / 4)) in
  check "two arcs of diameter 3" 3 (Partition.max_cluster_diameter g p);
  (* a disconnected cluster reports max_int *)
  let p2 = Partition.of_labels g (Array.init 8 (fun v -> v mod 2)) in
  check "disconnected cluster" max_int (Partition.max_cluster_diameter g p2)

let test_partition_sizes () =
  let g = Generators.path 5 in
  let p = Partition.of_labels g [| 0; 0; 0; 1; 1 |] in
  let sizes = Array.make p.k 0 in
  Array.iter (fun l -> sizes.(l) <- sizes.(l) + 1) p.labels;
  Alcotest.(check (array int)) "sizes" [| 3; 2 |] sizes

(* ------------------------------------------------------------------ *)
(* Edge separators                                                     *)
(* ------------------------------------------------------------------ *)

let separator_families seed =
  [
    ("grid", Generators.grid 10 10);
    ("apollonian", Generators.random_apollonian 120 ~seed);
    ("tree", Generators.random_tree 90 ~seed);
    ("outerplanar", Generators.random_maximal_outerplanar 80 ~seed);
    ("k-tree", Generators.random_k_tree 80 3 ~seed);
  ]

let test_separator_balance_and_quality () =
  List.iter
    (fun (name, g) ->
      let cut = Edge_separator.best g ~seed:1 in
      checkb (name ^ " balanced") true (Edge_separator.is_balanced g cut);
      (* Theorem 1.6 shape: crossing = O(sqrt(Delta n)); constant < 4 on
         these families empirically *)
      let q = Edge_separator.quality g cut in
      checkb (Printf.sprintf "%s quality %.2f < 4" name q) true (q < 4.))
    (separator_families 2)

let test_separator_grid_exact_shape () =
  (* 10x10 grid: a column cut has 10 crossing edges; sqrt(4*100) = 20 *)
  let g = Generators.grid 10 10 in
  let cut = Edge_separator.best g ~seed:3 in
  checkb "close to the column cut" true (cut.crossing <= 20)

let test_separator_refine_no_worse () =
  let g = Generators.random_apollonian 80 ~seed:4 in
  let c0 = Edge_separator.bfs_layered g in
  let c1 = Edge_separator.refine g c0 ~passes:3 in
  checkb "refinement does not worsen" true (c1.crossing <= c0.crossing)

let test_separator_consistency () =
  let g = Generators.grid 6 6 in
  let cut = Edge_separator.best g ~seed:5 in
  (* crossing count matches the mask *)
  let recount =
    Graph.fold_edges g
      (fun acc _ u v -> if cut.side.(u) <> cut.side.(v) then acc + 1 else acc)
      0
  in
  check "crossing consistent" recount cut.crossing

(* ------------------------------------------------------------------ *)
(* Region growing LDD                                                  *)
(* ------------------------------------------------------------------ *)

let test_region_growing_budget () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun eps ->
          let p = Ldd.region_growing g ~epsilon:eps in
          checkb
            (Printf.sprintf "%s eps=%.2f within budget" name eps)
            true
            (Partition.cut_fraction g p <= eps +. 1e-9);
          checkb "valid" true (Partition.is_valid g p);
          checkb "finite diameters" true
            (Partition.max_cluster_diameter g p < max_int))
        [ 0.5; 0.25 ])
    (separator_families 6)

let test_region_growing_whole_graph_small_eps () =
  (* huge epsilon allows singleton-ish clusters; tiny epsilon returns few *)
  let g = Generators.grid 8 8 in
  let p_loose = Ldd.region_growing g ~epsilon:2. in
  let p_tight = Ldd.region_growing g ~epsilon:0.05 in
  checkb "loose epsilon: more clusters" true (p_loose.k >= p_tight.k)

let test_region_growing_diameter_shape () =
  (* D should shrink as epsilon grows *)
  let g = Generators.grid 12 12 in
  let d eps =
    Partition.max_cluster_diameter g (Ldd.region_growing g ~epsilon:eps)
  in
  checkb "diameter decreases with epsilon" true (d 1.0 <= d 0.1)

(* ------------------------------------------------------------------ *)
(* MPX                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mpx_partitions () =
  let g = Generators.grid 10 10 in
  let p = Ldd.mpx g ~beta:0.3 ~seed:7 in
  checkb "valid" true (Partition.is_valid g p);
  checkb "clusters connected" true
    (Partition.max_cluster_diameter g p < max_int)

let test_mpx_beta_tradeoff () =
  (* larger beta -> more clusters, smaller diameter, more cut edges *)
  let g = Generators.grid 14 14 in
  let p_small = Ldd.mpx g ~beta:0.05 ~seed:8 in
  let p_large = Ldd.mpx g ~beta:0.8 ~seed:8 in
  checkb "more clusters at large beta" true (p_large.k >= p_small.k);
  checkb "larger cut at large beta" true
    (List.length p_large.inter_edges >= List.length p_small.inter_edges)

(* ------------------------------------------------------------------ *)
(* KPR                                                                 *)
(* ------------------------------------------------------------------ *)

let test_kpr_chop_basic () =
  let g = Generators.grid 10 10 in
  let p = Kpr.chop g ~width:4 ~levels:2 ~seed:9 in
  checkb "valid" true (Partition.is_valid g p);
  checkb "connected clusters" true
    (Partition.max_cluster_diameter g p < max_int)

let test_kpr_chop_pinned () =
  (* regression: the chop visits label groups in ascending order, so the
     shared offset draws and fresh-label counter make the result a pure
     function of (graph, seed) — not of hash-table iteration order *)
  let p = Kpr.chop (Generators.grid 4 4) ~width:3 ~levels:2 ~seed:9 in
  Alcotest.(check (array int))
    "labels"
    [| 0; 1; 2; 2; 3; 2; 2; 2; 4; 4; 2; 5; 4; 4; 6; 6 |]
    p.Partition.labels

let test_kpr_cut_expectation () =
  (* expected cut fraction <= levels / width; allow 2x slack *)
  let g = Generators.random_apollonian 200 ~seed:10 in
  let width = 8 and levels = 2 in
  let p = Kpr.chop g ~width ~levels ~seed:11 in
  let expect = float_of_int levels /. float_of_int width in
  checkb
    (Printf.sprintf "cut %.3f vs expectation %.3f"
       (Partition.cut_fraction g p) expect)
    true
    (Partition.cut_fraction g p <= 2.5 *. expect)

let test_kpr_ldd_budget () =
  List.iter
    (fun (name, g) ->
      let p = Kpr.ldd g ~epsilon:0.4 ~levels:2 ~seed:12 in
      checkb (name ^ " within budget") true
        (Partition.cut_fraction g p <= 0.4 +. 1e-9))
    (separator_families 13)

let test_kpr_diameter_linear_in_width () =
  (* the KPR shape: diameter grows linearly with width, not with n *)
  let g = Generators.grid 16 16 in
  let d width =
    Partition.max_cluster_diameter g (Kpr.chop g ~width ~levels:2 ~seed:14)
  in
  let d4 = d 4 and d8 = d 8 in
  checkb
    (Printf.sprintf "diam(width 4) = %d <= diam(width 8) = %d + slack" d4 d8)
    true
    (d4 <= (2 * d8) + 4);
  (* both far below the graph diameter times constant *)
  checkb "bounded by O(width)" true (d4 <= 8 * 4)

let test_kpr_validation () =
  let g = Generators.cycle 5 in
  Alcotest.check_raises "bad width"
    (Invalid_argument "Kpr.chop: need width >= 1 and levels >= 1") (fun () ->
      ignore (Kpr.chop g ~width:0 ~levels:1 ~seed:0))

(* ------------------------------------------------------------------ *)
(* QCheck                                                              *)
(* ------------------------------------------------------------------ *)

let arb_planarish =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
    QCheck.Gen.(pair (int_range 6 80) (int_range 0 10_000))

let prop_region_growing_budget =
  QCheck.Test.make ~name:"region growing respects the cut budget" ~count:60
    arb_planarish (fun (n, seed) ->
      let g = Generators.random_apollonian n ~seed in
      let p = Ldd.region_growing g ~epsilon:0.3 in
      Partition.cut_fraction g p <= 0.3 +. 1e-9)

let prop_separator_balanced =
  QCheck.Test.make ~name:"separators are balanced" ~count:60 arb_planarish
    (fun (n, seed) ->
      let g = Generators.random_apollonian n ~seed in
      Edge_separator.is_balanced g (Edge_separator.best g ~seed))

let prop_kpr_partition_valid =
  QCheck.Test.make ~name:"KPR partitions are valid with connected clusters"
    ~count:40 arb_planarish (fun (n, seed) ->
      let g = Generators.random_apollonian n ~seed in
      let p = Kpr.chop g ~width:3 ~levels:2 ~seed in
      Partition.is_valid g p
      && Partition.max_cluster_diameter g p < max_int)

let prop_mpx_covers =
  QCheck.Test.make ~name:"MPX assigns every vertex" ~count:40 arb_planarish
    (fun (n, seed) ->
      let g = Generators.random_tree n ~seed in
      let p = Ldd.mpx g ~beta:0.4 ~seed in
      Partition.is_valid g p)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_region_growing_budget;
      prop_separator_balanced;
      prop_kpr_partition_valid;
      prop_mpx_covers;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "decomp"
    [
      ( "partition",
        [
          tc "of_labels" test_partition_of_labels;
          tc "cluster diameter" test_partition_diameter;
          tc "sizes" test_partition_sizes;
        ] );
      ( "edge_separator",
        [
          tc "balance and sqrt(Dn) quality" test_separator_balance_and_quality;
          tc "grid column cut" test_separator_grid_exact_shape;
          tc "refinement monotone" test_separator_refine_no_worse;
          tc "internal consistency" test_separator_consistency;
        ] );
      ( "region_growing",
        [
          tc "cut budget" test_region_growing_budget;
          tc "epsilon extremes" test_region_growing_whole_graph_small_eps;
          tc "diameter vs epsilon" test_region_growing_diameter_shape;
        ] );
      ( "mpx",
        [
          tc "valid partition" test_mpx_partitions;
          tc "beta tradeoff" test_mpx_beta_tradeoff;
        ] );
      ( "kpr",
        [
          tc "basic chop" test_kpr_chop_basic;
          tc "pinned labels" test_kpr_chop_pinned;
          tc "cut expectation" test_kpr_cut_expectation;
          tc "ldd budget" test_kpr_ldd_budget;
          tc "diameter linear in width" test_kpr_diameter_linear_in_width;
          tc "parameter validation" test_kpr_validation;
        ] );
      ("qcheck", qcheck_cases);
    ]
