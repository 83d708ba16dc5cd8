open Sparse_graph
open Optimize

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* MIS                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mis_known () =
  check "C6" 3 (Mis.exact_size (Generators.cycle 6));
  check "C7" 3 (Mis.exact_size (Generators.cycle 7));
  check "P7" 4 (Mis.exact_size (Generators.path 7));
  check "K5" 1 (Mis.exact_size (Generators.complete 5));
  check "K33" 3 (Mis.exact_size (Graph_fixtures.complete_bipartite 3 3));
  check "star" 5 (Mis.exact_size (Graph_fixtures.star 5));
  check "grid 3x3" 5 (Mis.exact_size (Generators.grid 3 3));
  check "petersen" 4
    (Mis.exact_size
       (Graph.of_edges 10
          ([ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ]
          @ [ (5, 7); (7, 9); (9, 6); (6, 8); (8, 5) ]
          @ List.init 5 (fun i -> (i, i + 5)))))

let test_mis_exact_is_independent () =
  let g = Generators.random_apollonian 50 ~seed:1 in
  let set = Mis.exact g in
  checkb "independent" true (Mis.is_independent g set)

let test_mis_matches_brute_force () =
  for seed = 0 to 9 do
    let g =
      Generators.add_random_edges (Generators.random_tree 13 ~seed) 8 ~seed
    in
    check
      (Printf.sprintf "seed %d" seed)
      (Mis.brute_force g) (Mis.exact_size g)
  done

let test_mis_greedy_bound () =
  (* greedy >= n / (2d + 1) where d = edge density *)
  List.iter
    (fun (name, g) ->
      let set = Mis.greedy g in
      checkb (name ^ " independent") true (Mis.is_independent g set);
      let d = Graph.edge_density g in
      let bound =
        int_of_float (floor (float_of_int (Graph.n g) /. ((2. *. d) +. 1.)))
      in
      checkb
        (Printf.sprintf "%s greedy %d >= bound %d" name (List.length set) bound)
        true
        (List.length set >= bound))
    [
      ("apollonian", Generators.random_apollonian 100 ~seed:2);
      ("grid", Generators.grid 9 9);
      ("tree", Generators.random_tree 80 ~seed:3);
      ("outerplanar", Generators.random_maximal_outerplanar 60 ~seed:4);
    ]

let test_mis_planar_quarter () =
  (* four-color theorem: alpha >= n/4 on planar graphs; exact must find it *)
  let g = Generators.random_apollonian 60 ~seed:5 in
  checkb "alpha >= n/4" true (Mis.exact_size g * 4 >= Graph.n g)

let test_mis_empty_and_tiny () =
  check "empty graph" 3 (Mis.exact_size (Graph.empty 3));
  check "single" 1 (Mis.exact_size (Graph.empty 1));
  check "one edge" 1 (Mis.exact_size (Generators.path 2))

(* ------------------------------------------------------------------ *)
(* Weighted MIS                                                        *)
(* ------------------------------------------------------------------ *)

let test_weighted_mis_known () =
  (* path a-b-c with center heavy: take the center alone *)
  let g = Generators.path 3 in
  check "heavy center" 10
    (Mis.weight_of [| 1; 10; 1 |] (Mis.exact_weighted g [| 1; 10; 1 |]));
  (* light center: take the two ends *)
  check "light center" 8
    (Mis.weight_of [| 4; 5; 4 |] (Mis.exact_weighted g [| 4; 5; 4 |]));
  (* star with heavy leaves *)
  let s = Graph_fixtures.star 4 in
  let w = [| 3; 2; 2; 2; 2 |] in
  check "all leaves" 8 (Mis.weight_of w (Mis.exact_weighted s w))

let test_weighted_mis_matches_brute_force () =
  for seed = 0 to 9 do
    let g =
      Generators.add_random_edges (Generators.random_tree 12 ~seed) 7 ~seed
    in
    let st = Random.State.make [| seed; 997 |] in
    let w = Array.init (Graph.n g) (fun _ -> 1 + Random.State.int st 20) in
    let set = Mis.exact_weighted g w in
    checkb "independent" true (Mis.is_independent g set);
    check
      (Printf.sprintf "seed %d" seed)
      (Mis.brute_force_weighted g w)
      (Mis.weight_of w set)
  done

let test_weighted_mis_uniform_equals_unweighted () =
  let g = Generators.random_apollonian 40 ~seed:30 in
  let w = Array.make (Graph.n g) 1 in
  check "uniform weights = cardinality" (Mis.exact_size g)
    (List.length (Mis.exact_weighted g w))

let test_weighted_mis_rejects_bad_weights () =
  let g = Generators.path 3 in
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Mis.exact_weighted: weights must be positive")
    (fun () -> ignore (Mis.exact_weighted g [| 1; 0; 1 |]))

(* ------------------------------------------------------------------ *)
(* Correlation clustering                                              *)
(* ------------------------------------------------------------------ *)

let test_correlation_score () =
  let g = Generators.cycle 4 in
  let labels = [| true; false; true; false |] in
  (* all in one cluster: score = #positive = 2 *)
  check "one cluster" 2 (Correlation.score g labels (Array.make 4 0));
  (* singletons: score = #negative = 2 *)
  check "singletons" 2 (Correlation.score g labels (Array.init 4 Fun.id))

let test_correlation_trivial_bound () =
  for seed = 0 to 4 do
    let g = Generators.random_apollonian 30 ~seed in
    let labels = Generators.random_sign_labels g ~frac_pos:0.5 ~seed in
    let c = Correlation.trivial g labels in
    checkb "gamma >= m/2" true
      (2 * Correlation.score g labels c >= Graph.m g)
  done

(* number of distinct cluster labels *)
let cluster_count clustering =
  List.length (List.sort_uniq Int.compare (Array.to_list clustering))

let test_correlation_exact_all_positive () =
  let g = Generators.complete 6 in
  let labels = Array.make (Graph.m g) true in
  check "everything agrees" (Graph.m g) (Correlation.exact_score g labels);
  let clustering = Correlation.exact g labels in
  check "one cluster" 1 (cluster_count clustering)

let test_correlation_exact_all_negative () =
  let g = Generators.complete 6 in
  let labels = Array.make (Graph.m g) false in
  check "everything agrees" (Graph.m g) (Correlation.exact_score g labels);
  check "singletons" 6
    (cluster_count (Correlation.exact g labels))

let test_correlation_exact_planted () =
  (* two positive cliques joined by negative edges: planted optimum *)
  let k = 4 in
  let g =
    Graph.of_edges (2 * k)
      (List.concat
         [
           List.concat_map
             (fun i -> List.filter_map (fun j -> if i < j then Some (i, j) else None)
                 (List.init k Fun.id))
             (List.init k Fun.id);
           List.concat_map
             (fun i ->
               List.filter_map
                 (fun j -> if i < j then Some (k + i, k + j) else None)
                 (List.init k Fun.id))
             (List.init k Fun.id);
           [ (0, k); (1, k + 1) ];
         ])
  in
  let labels =
    Array.init (Graph.m g) (fun e ->
        let u, v = Graph.endpoints g e in
        (u < k) = (v < k))
  in
  check "perfect score" (Graph.m g) (Correlation.exact_score g labels);
  let clustering = Correlation.exact g labels in
  checkb "communities recovered" true
    (clustering.(0) = clustering.(k - 1) && clustering.(k) = clustering.(2 * k - 1)
    && clustering.(0) <> clustering.(k))

let test_correlation_exact_beats_heuristics () =
  for seed = 0 to 5 do
    let g =
      Generators.add_random_edges (Generators.random_tree 12 ~seed) 10 ~seed
    in
    let labels = Generators.random_sign_labels g ~frac_pos:0.6 ~seed in
    let opt = Correlation.exact_score g labels in
    let triv = Correlation.score g labels (Correlation.trivial g labels) in
    let piv = Correlation.score g labels (Correlation.pivot g labels ~seed) in
    checkb "exact >= trivial" true (opt >= triv);
    checkb "exact >= pivot" true (opt >= piv)
  done

let test_correlation_local_improve_monotone () =
  let g = Generators.random_apollonian 40 ~seed:6 in
  let labels = Generators.random_sign_labels g ~frac_pos:0.5 ~seed:6 in
  let start = Correlation.pivot g labels ~seed:6 in
  let s0 = Correlation.score g labels start in
  let improved = Correlation.local_improve g labels start ~passes:3 in
  checkb "no regression" true (Correlation.score g labels improved >= s0)

let test_correlation_solve_dispatch () =
  (* small: exact; large: heuristic; both valid and >= trivial bound *)
  List.iter
    (fun (name, g, seed) ->
      let labels = Generators.random_sign_labels g ~frac_pos:0.5 ~seed in
      let c = Correlation.solve g labels ~seed in
      let s = Correlation.score g labels c in
      checkb (name ^ " >= m/2") true (2 * s >= Graph.m g))
    [
      ("small", Generators.cycle 10, 1);
      ("large", Generators.random_apollonian 80 ~seed:7, 2);
    ]

let test_correlation_size_limit () =
  let g = Generators.cycle 20 in
  Alcotest.check_raises "too large"
    (Invalid_argument "Correlation.exact: graph too large") (fun () ->
      ignore (Correlation.exact g (Array.make 20 true)))

(* ------------------------------------------------------------------ *)
(* Dominating set / vertex cover                                       *)
(* ------------------------------------------------------------------ *)

let test_dominating_known () =
  check "star" 1 (Dominating.exact_size (Graph_fixtures.star 6));
  check "P3" 1 (Dominating.exact_size (Generators.path 3));
  check "P6" 2 (Dominating.exact_size (Generators.path 6));
  check "C6" 2 (Dominating.exact_size (Generators.cycle 6));
  check "C7" 3 (Dominating.exact_size (Generators.cycle 7));
  check "K5" 1 (Dominating.exact_size (Generators.complete 5));
  (* grid 4x4: known domination number 4 *)
  check "grid 4x4" 4 (Dominating.exact_size (Generators.grid 4 4))

let test_dominating_matches_brute_force () =
  for seed = 0 to 7 do
    let g =
      Generators.add_random_edges (Generators.random_tree 12 ~seed) 6 ~seed
    in
    check
      (Printf.sprintf "seed %d" seed)
      (Dominating.brute_force g) (Dominating.exact_size g)
  done

let test_dominating_sets_valid () =
  let g = Generators.random_apollonian 50 ~seed:60 in
  checkb "exact dominates" true (Dominating.is_dominating g (Dominating.exact g));
  checkb "greedy dominates" true (Dominating.is_dominating g (Dominating.greedy g));
  checkb "exact <= greedy" true
    (Dominating.exact_size g <= List.length (Dominating.greedy g))

let test_vertex_cover_known () =
  check "star" 1 (Vertex_cover.exact_size (Graph_fixtures.star 5));
  check "C6" 3 (Vertex_cover.exact_size (Generators.cycle 6));
  check "C7" 4 (Vertex_cover.exact_size (Generators.cycle 7));
  check "K5" 4 (Vertex_cover.exact_size (Generators.complete 5));
  check "P4" 2 (Vertex_cover.exact_size (Generators.path 4))

let test_vertex_cover_valid_and_bounds () =
  for seed = 0 to 4 do
    let g =
      Generators.add_random_edges (Generators.random_tree 30 ~seed) 12 ~seed
    in
    let exact = Vertex_cover.exact g in
    let approx = Vertex_cover.two_approx g in
    checkb "exact covers" true (Vertex_cover.is_cover g exact);
    checkb "2-approx covers" true (Vertex_cover.is_cover g approx);
    checkb "2-approx within factor 2" true
      (List.length approx <= 2 * List.length exact);
    (* Gallai: alpha + tau = n *)
    check "gallai identity" (Graph.n g)
      (Mis.exact_size g + List.length exact)
  done

(* ------------------------------------------------------------------ *)
(* QCheck                                                              *)
(* ------------------------------------------------------------------ *)

let arb_small =
  QCheck.make
    ~print:(fun (n, seed, extra) ->
      Printf.sprintf "n=%d seed=%d extra=%d" n seed extra)
    QCheck.Gen.(
      map3
        (fun n seed extra -> (n, seed, extra))
        (int_range 2 13) (int_range 0 10_000) (int_range 0 10))

let build (n, seed, extra) =
  Generators.add_random_edges (Generators.random_tree n ~seed) extra ~seed

let prop_mis_exact_brute =
  QCheck.Test.make ~name:"branch-and-bound equals brute force" ~count:150
    arb_small (fun input ->
      let g = build input in
      Mis.exact_size g = Mis.brute_force g)

let prop_weighted_mis_exact =
  QCheck.Test.make ~name:"weighted branch-and-bound equals brute force"
    ~count:120 arb_small (fun input ->
      let n, seed, _ = input in
      let g = build input in
      let st = Random.State.make [| seed; 1013 |] in
      let w = Array.init n (fun _ -> 1 + Random.State.int st 30) in
      Mis.weight_of w (Mis.exact_weighted g w) = Mis.brute_force_weighted g w)

let prop_mis_greedy_independent =
  QCheck.Test.make ~name:"greedy MIS is independent" ~count:100 arb_small
    (fun input ->
      let g = build input in
      Mis.is_independent g (Mis.greedy g))

let prop_correlation_exact_ge_merges =
  QCheck.Test.make
    ~name:"exact correlation beats random merge clusterings" ~count:100
    QCheck.(pair arb_small (int_range 0 100))
    (fun (input, salt) ->
      let n, seed, _ = input in
      let g = build input in
      let labels = Generators.random_sign_labels g ~frac_pos:0.5 ~seed in
      let st = Random.State.make [| salt |] in
      let rand_clustering = Array.init n (fun _ -> Random.State.int st 3) in
      Correlation.exact_score g labels
      >= Correlation.score g labels rand_clustering)

let prop_correlation_flip_symmetry =
  QCheck.Test.make
    ~name:"flipping all labels keeps optimal score >= m/2" ~count:80 arb_small
    (fun input ->
      let _, seed, _ = input in
      let g = build input in
      let labels = Generators.random_sign_labels g ~frac_pos:0.3 ~seed in
      let flipped = Array.map not labels in
      2 * Correlation.exact_score g flipped >= Graph.m g)

let prop_dominating_exact_brute =
  QCheck.Test.make ~name:"dominating branch-and-bound equals brute force"
    ~count:80 arb_small (fun input ->
      let g = build input in
      Dominating.exact_size g = Dominating.brute_force g)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_mis_exact_brute;
      prop_weighted_mis_exact;
      prop_dominating_exact_brute;
      prop_mis_greedy_independent;
      prop_correlation_exact_ge_merges;
      prop_correlation_flip_symmetry;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "optimize"
    [
      ( "mis",
        [
          tc "known values" test_mis_known;
          tc "exact independent" test_mis_exact_is_independent;
          tc "vs brute force" test_mis_matches_brute_force;
          tc "greedy density bound" test_mis_greedy_bound;
          tc "planar quarter bound" test_mis_planar_quarter;
          tc "degenerate graphs" test_mis_empty_and_tiny;
        ] );
      ( "weighted_mis",
        [
          tc "known values" test_weighted_mis_known;
          tc "vs brute force" test_weighted_mis_matches_brute_force;
          tc "uniform equals unweighted" test_weighted_mis_uniform_equals_unweighted;
          tc "weight validation" test_weighted_mis_rejects_bad_weights;
        ] );
      ( "correlation",
        [
          tc "score function" test_correlation_score;
          tc "trivial m/2 bound" test_correlation_trivial_bound;
          tc "all positive" test_correlation_exact_all_positive;
          tc "all negative" test_correlation_exact_all_negative;
          tc "planted communities" test_correlation_exact_planted;
          tc "exact beats heuristics" test_correlation_exact_beats_heuristics;
          tc "local improve monotone" test_correlation_local_improve_monotone;
          tc "solve dispatch" test_correlation_solve_dispatch;
          tc "size limit" test_correlation_size_limit;
        ] );
      ( "covering",
        [
          tc "dominating known values" test_dominating_known;
          tc "dominating vs brute force" test_dominating_matches_brute_force;
          tc "dominating sets valid" test_dominating_sets_valid;
          tc "vertex cover known values" test_vertex_cover_known;
          tc "vertex cover bounds" test_vertex_cover_valid_and_bounds;
        ] );
      ("qcheck", qcheck_cases);
    ]
