open Sparse_graph
open Matching

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Blossom                                                             *)
(* ------------------------------------------------------------------ *)

let mcm g = Blossom.size (Blossom.max_cardinality_matching g)

let test_blossom_known () =
  check "even cycle" 5 (mcm (Generators.cycle 10));
  check "odd cycle" 4 (mcm (Generators.cycle 9));
  check "path" 3 (mcm (Generators.path 7));
  check "complete even" 3 (mcm (Generators.complete 6));
  check "complete odd" 3 (mcm (Generators.complete 7));
  check "star" 1 (mcm (Graph_fixtures.star 5));
  check "K33" 3 (mcm (Graph_fixtures.complete_bipartite 3 3));
  check "K23" 2 (mcm (Graph_fixtures.complete_bipartite 2 3))

let petersen =
  (* outer C5, inner pentagram, spokes *)
  Graph.of_edges 10
    ([ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ]
    @ [ (5, 7); (7, 9); (9, 6); (6, 8); (8, 5) ]
    @ List.init 5 (fun i -> (i, i + 5)))

let test_blossom_petersen () =
  (* the Petersen graph has a perfect matching *)
  check "petersen perfect matching" 5 (mcm petersen)

let test_blossom_needs_blossoms () =
  (* two triangles joined by an edge: needs odd-cycle handling; MCM = 3 *)
  let g =
    Graph.of_edges 6 [ (0, 1); (1, 2); (0, 2); (3, 4); (4, 5); (3, 5); (2, 3) ]
  in
  check "triangle pair" 3 (mcm g)

let test_blossom_validity_and_optimality () =
  let g = Generators.random_apollonian 60 ~seed:1 in
  let mate = Blossom.max_cardinality_matching g in
  checkb "valid" true (Blossom.is_valid_matching g mate);
  checkb "maximum (no augmenting path)" true (Blossom.is_maximum g mate)

let test_blossom_edges () =
  let g = Generators.cycle 6 in
  let mate = Blossom.max_cardinality_matching g in
  check "three matched edges" 3 (Blossom.size mate)

(* ------------------------------------------------------------------ *)
(* Exact DP                                                            *)
(* ------------------------------------------------------------------ *)

let test_dp_matches_blossom_cardinality () =
  for seed = 0 to 9 do
    let g =
      Generators.add_random_edges
        (Generators.random_tree 12 ~seed)
        6 ~seed
    in
    check
      (Printf.sprintf "seed %d" seed)
      (mcm g) (Exact_small.max_cardinality g)
  done

let test_dp_weighted_known () =
  (* path a-b-c with weights 3, 2: best is just the 3-edge *)
  let g = Generators.path 3 in
  let w = Weights.of_array g [| 3; 2 |] in
  check "single heavy edge" 3 (Exact_small.max_weight_matching g w);
  (* path of 4 vertices, weights 2,3,2: ends beat middle *)
  let g4 = Generators.path 4 in
  let w4 = Weights.of_array g4 [| 2; 3; 2 |] in
  check "two end edges" 4 (Exact_small.max_weight_matching g4 w4)

let test_dp_reconstruction () =
  let g = Generators.complete 6 in
  let w = Weights.random g ~max_w:20 ~seed:2 in
  let value, edges = Exact_small.max_weight_matching_edges g w in
  check "value equals edge sum" value
    (List.fold_left (fun acc e -> acc + Weights.get w e) 0 edges);
  (* picked edges form a matching *)
  let seen = Array.make 6 false in
  List.iter
    (fun e ->
      let u, v = Graph.endpoints g e in
      checkb "endpoint fresh" false (seen.(u) || seen.(v));
      seen.(u) <- true;
      seen.(v) <- true)
    edges

let test_dp_size_limit () =
  Alcotest.check_raises "too large"
    (Invalid_argument "Exact_small: graph too large for subset DP") (fun () ->
      ignore (Exact_small.max_cardinality (Generators.cycle 30)))

(* ------------------------------------------------------------------ *)
(* Approximations                                                      *)
(* ------------------------------------------------------------------ *)

let ratio_check name algo ~bound g w =
  let mate = algo g w in
  checkb (name ^ " valid") true (Blossom.is_valid_matching g mate);
  let got = Approx.weight g w mate in
  let opt = Exact_small.max_weight_matching g w in
  checkb
    (Printf.sprintf "%s ratio %d/%d >= %.2f" name got opt bound)
    true
    (float_of_int got >= (bound *. float_of_int opt) -. 1e-9)

let small_weighted_instances =
  List.concat_map
    (fun seed ->
      let g =
        Generators.add_random_edges (Generators.random_tree 12 ~seed) 8 ~seed
      in
      [ (g, Weights.random g ~max_w:30 ~seed) ])
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_greedy_half () =
  List.iter
    (fun (g, w) -> ratio_check "greedy" Approx.greedy ~bound:0.5 g w)
    small_weighted_instances

let test_path_growing_half () =
  List.iter
    (fun (g, w) -> ratio_check "path-growing" Approx.path_growing ~bound:0.5 g w)
    small_weighted_instances

let test_local_search_improves () =
  List.iter
    (fun (g, w) ->
      ratio_check "local-search"
        (fun g w -> Approx.local_search g w ~len:3 ~passes:6 ())
        ~bound:0.5 g w)
    small_weighted_instances

(* ------------------------------------------------------------------ *)
(* Scaling                                                             *)
(* ------------------------------------------------------------------ *)

let test_scaling_beats_greedy () =
  let better = ref 0 and total = ref 0 in
  List.iter
    (fun (g, w) ->
      let s = Approx.weight g w (Scaling.run ~params:(Scaling.of_epsilon 0.2) g w) in
      let gr = Approx.weight g w (Approx.greedy g w) in
      incr total;
      if s >= gr then incr better)
    small_weighted_instances;
  (* scaling should be at least as good as greedy on most instances *)
  checkb
    (Printf.sprintf "scaling >= greedy on %d/%d" !better !total)
    true
    (!better * 4 >= !total * 3)

let test_scaling_near_optimal_small () =
  List.iter
    (fun (g, w) ->
      ratio_check "scaling"
        (fun g w -> Scaling.run ~params:(Scaling.of_epsilon 0.1) g w)
        ~bound:0.8 g w)
    small_weighted_instances

let test_scaling_scales_list () =
  let g = Generators.path 5 in
  let w = Weights.of_array g [| 100; 10; 3; 1 |] in
  let ss = Scaling.scales w in
  checkb "starts at max weight" true (List.hd ss = 100);
  checkb "descending" true
    (List.for_all2 ( > ) (List.filteri (fun i _ -> i < List.length ss - 1) ss)
       (List.tl ss));
  checkb "ends at 1" true (List.nth ss (List.length ss - 1) = 1)

let test_scaling_uniform_weights () =
  (* degenerate single scale *)
  let g = Generators.grid 4 4 in
  let w = Weights.of_array g (Array.make (Graph.m g) 1) in
  let mate = Scaling.run g w in
  checkb "valid" true (Blossom.is_valid_matching g mate);
  checkb "decent size" true (Blossom.size mate >= 6)

(* ------------------------------------------------------------------ *)
(* Preprocessing                                                       *)
(* ------------------------------------------------------------------ *)

let test_preprocess_star () =
  (* star with 5 leaves: keep center + 1 leaf *)
  let g = Graph_fixtures.star 5 in
  let r = Preprocess.eliminate g in
  check "four leaves removed" 4 (List.length r.removed);
  check "two vertices left" 2 (Graph.n r.graph);
  check "mcm preserved" (mcm g) (mcm r.graph)

let test_preprocess_double_star () =
  (* double star with 5 spokes: keep hubs + 2 spokes *)
  let g = Graph_fixtures.double_star 5 in
  let r = Preprocess.eliminate g in
  check "three spokes removed" 3 (List.length r.removed);
  check "mcm preserved" (mcm g) (mcm r.graph);
  checkb "no 3-double-star left" false (Preprocess.has_3_double_star r.graph)

let test_preprocess_preserves_mcm () =
  for seed = 0 to 7 do
    let g =
      Generators.attach_double_stars
        (Generators.attach_stars
           (Generators.random_planar 30 0.5 ~seed)
           ~stars:4 ~leaves:4 ~seed)
        ~hubs:2 ~spokes:5 ~seed
    in
    let r = Preprocess.eliminate_fixpoint g in
    check (Printf.sprintf "mcm preserved seed %d" seed) (mcm g) (mcm r.graph);
    checkb "no 2-star" false (Preprocess.has_2_star r.graph);
    checkb "no 3-double-star" false (Preprocess.has_3_double_star r.graph)
  done

let test_preprocess_detectors () =
  checkb "star has 2-star" true (Preprocess.has_2_star (Graph_fixtures.star 3));
  checkb "path has none" false (Preprocess.has_2_star (Generators.path 5));
  checkb "double star detected" true
    (Preprocess.has_3_double_star (Graph_fixtures.double_star 3));
  checkb "K23 detected" true
    (Preprocess.has_3_double_star (Graph_fixtures.complete_bipartite 2 3));
  checkb "cycle clean" false (Preprocess.has_3_double_star (Generators.cycle 8))

let test_preprocess_lemma31_shape () =
  (* Lemma 3.1: without 2-stars/3-double-stars, MCM = Omega(n). Check the
     reduced graphs have MCM at least n-bar / 5 across planar instances. *)
  for seed = 0 to 4 do
    let g =
      Generators.attach_stars
        (Generators.random_planar 60 0.55 ~seed)
        ~stars:8 ~leaves:5 ~seed
    in
    let r = Preprocess.eliminate_fixpoint g in
    (* count non-isolated vertices *)
    let live = ref 0 in
    for v = 0 to Graph.n r.graph - 1 do
      if Graph.degree r.graph v > 0 then incr live
    done;
    let matching = mcm r.graph in
    checkb
      (Printf.sprintf "seed %d: mcm %d vs live %d" seed matching !live)
      true
      (5 * matching >= !live)
  done

(* ------------------------------------------------------------------ *)
(* QCheck                                                              *)
(* ------------------------------------------------------------------ *)

let arb_small_graph =
  QCheck.make
    ~print:(fun (n, seed, extra) ->
      Printf.sprintf "n=%d seed=%d extra=%d" n seed extra)
    QCheck.Gen.(
      map3
        (fun n seed extra -> (n, seed, extra))
        (int_range 2 14) (int_range 0 10_000) (int_range 0 12))

let build (n, seed, extra) =
  Generators.add_random_edges (Generators.random_tree n ~seed) extra ~seed

let prop_blossom_equals_dp =
  QCheck.Test.make ~name:"blossom equals subset-DP cardinality" ~count:150
    arb_small_graph (fun input ->
      let g = build input in
      mcm g = Exact_small.max_cardinality g)

let prop_blossom_maximum =
  QCheck.Test.make ~name:"blossom leaves no augmenting path" ~count:100
    arb_small_graph (fun input ->
      let g = build input in
      Blossom.is_maximum g (Blossom.max_cardinality_matching g))

let prop_greedy_half_weighted =
  QCheck.Test.make ~name:"greedy achieves half the optimal weight" ~count:100
    arb_small_graph (fun input ->
      let (_, seed, _) = input in
      let g = build input in
      let w = Weights.random g ~max_w:50 ~seed in
      let got = Approx.weight g w (Approx.greedy g w) in
      2 * got >= Exact_small.max_weight_matching g w)

let prop_scaling_valid =
  QCheck.Test.make ~name:"scaling returns a valid matching" ~count:100
    arb_small_graph (fun input ->
      let (_, seed, _) = input in
      let g = build input in
      let w = Weights.random g ~max_w:50 ~seed in
      Blossom.is_valid_matching g (Scaling.run g w))

let prop_preprocess_mcm_preserved =
  QCheck.Test.make ~name:"preprocessing preserves maximum matching size"
    ~count:100 arb_small_graph (fun input ->
      let g = build input in
      let r = Preprocess.eliminate_fixpoint g in
      mcm g = mcm r.graph)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_blossom_equals_dp;
      prop_blossom_maximum;
      prop_greedy_half_weighted;
      prop_scaling_valid;
      prop_preprocess_mcm_preserved;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "matching"
    [
      ( "blossom",
        [
          tc "known values" test_blossom_known;
          tc "petersen" test_blossom_petersen;
          tc "odd components" test_blossom_needs_blossoms;
          tc "validity and optimality" test_blossom_validity_and_optimality;
          tc "matched edges" test_blossom_edges;
        ] );
      ( "exact_dp",
        [
          tc "cardinality vs blossom" test_dp_matches_blossom_cardinality;
          tc "weighted known" test_dp_weighted_known;
          tc "reconstruction" test_dp_reconstruction;
          tc "size limit" test_dp_size_limit;
        ] );
      ( "approx",
        [
          tc "greedy half" test_greedy_half;
          tc "path growing half" test_path_growing_half;
          tc "local search" test_local_search_improves;
        ] );
      ( "scaling",
        [
          tc "beats greedy" test_scaling_beats_greedy;
          tc "near optimal small" test_scaling_near_optimal_small;
          tc "scale thresholds" test_scaling_scales_list;
          tc "uniform weights" test_scaling_uniform_weights;
        ] );
      ( "preprocess",
        [
          tc "2-star elimination" test_preprocess_star;
          tc "3-double-star elimination" test_preprocess_double_star;
          tc "mcm preserved" test_preprocess_preserves_mcm;
          tc "pattern detectors" test_preprocess_detectors;
          tc "lemma 3.1 shape" test_preprocess_lemma31_shape;
        ] );
      ("qcheck", qcheck_cases);
    ]
