open Sparse_graph
open Minorfree

let checkb = Alcotest.(check bool)
let check = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Blocks                                                              *)
(* ------------------------------------------------------------------ *)

let test_blocks_two_triangles () =
  (* two triangles sharing vertex 2: two blocks, one cut vertex *)
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (2, 4) ] in
  check "two blocks" 2 (List.length (Blocks.blocks g))

let test_blocks_bridge () =
  let g = Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  check "each edge its own block" 3 (List.length (Blocks.blocks g))

let test_blocks_cycle () =
  let g = Generators.cycle 6 in
  check "one block" 1 (List.length (Blocks.blocks g))

let test_blocks_partition_edges () =
  let g = Generators.random_planar 60 0.6 ~seed:1 in
  let bs = Blocks.blocks g in
  let total = List.fold_left (fun acc b -> acc + List.length b) 0 bs in
  check "blocks partition the edges" (Graph.m g) total;
  let seen = Array.make (Graph.m g) false in
  List.iter
    (List.iter (fun e ->
         checkb "edge in one block" false seen.(e);
         seen.(e) <- true))
    bs

(* a connected graph is biconnected exactly when its edges form one block *)
let test_not_biconnected () =
  let count g = List.length (Blocks.blocks g) in
  check "path: a block per edge" 3 (count (Generators.path 4));
  check "star: a block per leaf" 4 (count (Graph_fixtures.star 4));
  check "K4: one block" 1 (count (Generators.complete 4))

(* ------------------------------------------------------------------ *)
(* Planarity                                                           *)
(* ------------------------------------------------------------------ *)

let planar_cases =
  [
    ("K4", Generators.complete 4, true);
    ("K5", Generators.complete 5, false);
    ("K6", Generators.complete 6, false);
    ("K33", Graph_fixtures.complete_bipartite 3 3, false);
    ("K23", Graph_fixtures.complete_bipartite 2 3, true);
    ("grid 5x5", Generators.grid 5 5, true);
    ("cycle", Generators.cycle 12, true);
    ("tree", Generators.random_tree 40 ~seed:2, true);
    ("apollonian", Generators.random_apollonian 60 ~seed:3, true);
    ("outerplanar", Generators.random_maximal_outerplanar 30 ~seed:4, true);
    ("petersen-like K5 subdivision",
     Graph_fixtures.subdivide (Generators.complete 5) 0 3, false);
    ("hypercube Q3", Generators.hypercube 3, true);
    ("hypercube Q4", Generators.hypercube 4, false);
    ("torus 3x3 = K33-ish", Graph_fixtures.torus 3 3, false);
  ]

let test_planarity_known () =
  List.iter
    (fun (name, g, expected) ->
      checkb name expected (Planarity.is_planar g))
    planar_cases

let test_planarity_disconnected () =
  let g = Graph_fixtures.disjoint_union (Generators.complete 4) (Generators.grid 3 3) in
  checkb "union of planars is planar" true (Planarity.is_planar g);
  let g' = Graph_fixtures.disjoint_union (Generators.complete 5) (Generators.grid 3 3) in
  checkb "union with K5 is not" false (Planarity.is_planar g')

let test_planarity_k5_in_big_planar () =
  let g = Generators.grid 8 8 in
  let g' = Generators.plant_k5s g 1 ~seed:5 in
  checkb "planted K5 detected" false (Planarity.is_planar g')

let test_embed_block_faces () =
  (* Euler check on the returned embedding: f = m - n + 2 *)
  List.iter
    (fun (name, g) ->
      match Planarity.embed_block g with
      | None -> Alcotest.fail (name ^ ": should embed")
      | Some faces ->
          check
            (name ^ ": Euler face count")
            (Graph.m g - Graph.n g + 2)
            (List.length faces))
    [
      ("K4", Generators.complete 4);
      ("cycle", Generators.cycle 7);
      ("grid 4x4", Generators.grid 4 4);
      ("apollonian", Generators.random_apollonian 40 ~seed:6);
      ("K23", Graph_fixtures.complete_bipartite 2 3);
    ]

let test_embed_block_pinned () =
  (* regression: attachment lists leave the embedder's hash table in
     sorted order, so the embedding is a function of the graph alone *)
  let faces g =
    match Planarity.embed_block g with
    | Some f -> f
    | None -> Alcotest.fail "should embed"
  in
  Alcotest.(check (list (list int)))
    "K4 faces"
    [ [ 2; 1; 3 ]; [ 3; 0; 2 ]; [ 1; 0; 3 ]; [ 0; 1; 2 ] ]
    (faces (Generators.complete 4));
  Alcotest.(check (list (list int)))
    "K23 faces"
    [ [ 0; 3; 1; 4 ]; [ 1; 2; 0; 4 ]; [ 0; 2; 1; 3 ] ]
    (faces (Graph_fixtures.complete_bipartite 2 3))

let test_embed_block_rejects () =
  checkb "K5 rejected" true (Planarity.embed_block (Generators.complete 5) = None);
  checkb "K33 rejected" true
    (Planarity.embed_block (Graph_fixtures.complete_bipartite 3 3) = None)

let test_embed_block_requires_biconnected () =
  Alcotest.check_raises "path rejected"
    (Invalid_argument "Planarity.embed_block: graph is not biconnected")
    (fun () -> ignore (Planarity.embed_block (Generators.path 4)))

let test_outerplanarity () =
  let outerplanar = Properties.outerplanar.holds in
  checkb "cycle outerplanar" true (outerplanar (Generators.cycle 8));
  checkb "maximal outerplanar" true
    (outerplanar (Generators.random_maximal_outerplanar 25 ~seed:7));
  checkb "K4 not outerplanar" false (outerplanar (Generators.complete 4));
  checkb "K23 not outerplanar" false
    (outerplanar (Graph_fixtures.complete_bipartite 2 3));
  checkb "grid 3x3 not outerplanar" false (outerplanar (Generators.grid 3 3));
  checkb "tree outerplanar" true
    (outerplanar (Generators.random_tree 20 ~seed:8))

(* ------------------------------------------------------------------ *)
(* Left-right planarity (independent implementation)                   *)
(* ------------------------------------------------------------------ *)

let test_lr_known () =
  List.iter
    (fun (name, g, expected) ->
      checkb name expected (Lr_planarity.is_planar g))
    planar_cases

let test_lr_agrees_with_demoucron () =
  for seed = 0 to 60 do
    let st = Random.State.make [| seed; 7 |] in
    let n = 5 + Random.State.int st 25 in
    let extra = Random.State.int st 22 in
    let g =
      Generators.add_random_edges (Generators.random_tree n ~seed) extra ~seed
    in
    checkb
      (Printf.sprintf "agreement on seed %d" seed)
      (Planarity.is_planar g)
      (Lr_planarity.is_planar g)
  done

let test_lr_large_planar () =
  checkb "apollonian 2000 accepted" true
    (Lr_planarity.is_planar (Generators.random_apollonian 2000 ~seed:9));
  checkb "grid 40x40 accepted" true
    (Lr_planarity.is_planar (Generators.grid 40 40));
  checkb "planted K5 in big grid rejected" false
    (Lr_planarity.is_planar
       (Generators.plant_k5s (Generators.grid 30 30) 1 ~seed:10))

(* ------------------------------------------------------------------ *)
(* Minor checking                                                      *)
(* ------------------------------------------------------------------ *)

let test_subgraph_iso () =
  checkb "triangle in K4" true
    (Minor_check.subgraph_isomorphic (Generators.complete 3) (Generators.complete 4));
  checkb "C4 in grid" true
    (Minor_check.subgraph_isomorphic (Generators.cycle 4) (Generators.grid 2 2));
  checkb "K3 not in K23" false
    (Minor_check.subgraph_isomorphic (Generators.complete 3)
       (Graph_fixtures.complete_bipartite 2 3));
  checkb "P3 in triangle" true
    (Minor_check.subgraph_isomorphic (Generators.path 3) (Generators.cycle 3))

let test_minor_basic () =
  checkb "K4 minor of K5" true
    (Minor_check.has_minor (Generators.complete 4) (Generators.complete 5));
  checkb "K3 minor of C6" true
    (Minor_check.has_minor (Generators.complete 3) (Generators.cycle 6));
  checkb "K3 not minor of tree" false
    (Minor_check.has_minor (Generators.complete 3) (Generators.random_tree 8 ~seed:9));
  checkb "K4 minor of Q3 (hypercube)" true
    (Minor_check.has_minor (Generators.complete 4) (Generators.hypercube 3))

let test_minor_subdivision () =
  (* a subdivision of H always contains H as a minor *)
  let h = Generators.complete 4 in
  let sub = Graph_fixtures.subdivide (Graph_fixtures.subdivide h 0 2) 3 1 in
  checkb "subdivided K4 has K4 minor" true (Minor_check.has_minor h sub)

let test_clique_minor_shortcuts () =
  checkb "K3 in cycle" true (Minor_check.has_clique_minor (Generators.cycle 5) 3);
  checkb "no K3 in forest" false
    (Minor_check.has_clique_minor (Generators.random_tree 30 ~seed:10) 3);
  checkb "K4 in K4" true (Minor_check.has_clique_minor (Generators.complete 4) 4);
  checkb "no K4 in outerplanar" false
    (Minor_check.has_clique_minor
       (Generators.random_maximal_outerplanar 25 ~seed:11) 4);
  checkb "no K5 in apollonian (planar)" false
    (Minor_check.has_clique_minor (Generators.random_apollonian 60 ~seed:12) 5);
  checkb "K5 in K6" true (Minor_check.has_clique_minor (Generators.complete 6) 5)

let test_series_parallel () =
  checkb "cycle is sp" true (Minor_check.is_series_parallel (Generators.cycle 10));
  checkb "2-tree is sp" true
    (Minor_check.is_series_parallel (Generators.random_k_tree 20 2 ~seed:13));
  checkb "outerplanar is sp" true
    (Minor_check.is_series_parallel
       (Generators.random_maximal_outerplanar 20 ~seed:14));
  checkb "K4 is not sp" false (Minor_check.is_series_parallel (Generators.complete 4));
  checkb "grid 3x3 not sp" false (Minor_check.is_series_parallel (Generators.grid 3 3));
  checkb "3-tree not sp" false
    (Minor_check.is_series_parallel (Generators.random_k_tree 15 3 ~seed:15))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let test_property_membership () =
  let tree = Generators.random_tree 20 ~seed:16 in
  let apo = Generators.random_apollonian 30 ~seed:17 in
  checkb "tree is forest" true (Properties.forest.holds tree);
  checkb "apollonian not forest" false (Properties.forest.holds apo);
  checkb "path is linear forest" true (Properties.linear_forest.holds (Generators.path 9));
  checkb "star not linear forest" false
    (Properties.linear_forest.holds (Graph_fixtures.star 4));
  checkb "apollonian planar" true (Properties.planar.holds apo);
  checkb "apollonian not sp" false (Properties.series_parallel.holds apo)

let test_forbidden_cliques_consistent () =
  List.iter
    (fun (p : Properties.t) ->
      (* the smallest clique K_s that fails [p.holds], searched up to 8 *)
      let rec smallest s =
        if s > 8 then None
        else if not (p.holds (Generators.complete s)) then Some s
        else smallest (s + 1)
      in
      match smallest 1 with
      | Some s -> check (p.name ^ " forbidden clique") p.forbidden_clique s
      | None -> Alcotest.fail (p.name ^ ": no forbidden clique found"))
    Properties.all

let test_far_from_forest () =
  (* dense planar graph: cycle rank is large *)
  let g = Generators.random_apollonian 40 ~seed:18 in
  checkb "apollonian far from forest" true
    (Properties.far_from ~epsilon:0.3 g Properties.forest);
  let almost_tree =
    Generators.add_random_edges (Generators.random_tree 50 ~seed:19) 2 ~seed:19
  in
  checkb "near-tree not far" false
    (Properties.far_from ~epsilon:0.3 almost_tree Properties.forest)

let test_far_from_planar () =
  (* K8 has 28 edges, needs >= 28 - 18 = 10 removals: 10/28 > 0.3 *)
  checkb "K8 far from planar" true
    (Properties.far_from ~epsilon:0.3 (Generators.complete 8) Properties.planar);
  checkb "grid not far from planar" false
    (Properties.far_from ~epsilon:0.1 (Generators.grid 5 5) Properties.planar)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let prop_generated_planar_accepts =
  QCheck.Test.make ~name:"generated planar families pass the planarity test"
    ~count:30
    QCheck.(pair (int_range 4 60) (int_range 0 1000))
    (fun (n, seed) ->
      Planarity.is_planar (Generators.random_apollonian n ~seed)
      && Planarity.is_planar (Generators.random_planar n 0.7 ~seed)
      && Planarity.is_planar (Generators.random_tree n ~seed))

let prop_k5_overlay_rejected =
  QCheck.Test.make ~name:"planting a K5 breaks planarity" ~count:30
    QCheck.(pair (int_range 10 50) (int_range 0 1000))
    (fun (n, seed) ->
      let g = Generators.plant_k5s (Generators.grid n 5) 1 ~seed in
      not (Planarity.is_planar g))

let prop_minor_closed_under_contraction =
  QCheck.Test.make ~name:"planarity is preserved by contraction" ~count:30
    QCheck.(pair (int_range 5 30) (int_range 0 1000))
    (fun (n, seed) ->
      let g = Generators.random_apollonian n ~seed in
      let st = Random.State.make [| seed |] in
      let e = Random.State.int st (Graph.m g) in
      let minor, _ = Graph_fixtures.contract_edges g [ e ] in
      Planarity.is_planar minor)

let prop_sp_implies_planar =
  QCheck.Test.make ~name:"series-parallel implies planar" ~count:30
    QCheck.(pair (int_range 4 40) (int_range 0 1000))
    (fun (n, seed) ->
      let g = Generators.random_k_tree n 2 ~seed in
      Minor_check.is_series_parallel g && Planarity.is_planar g)

let prop_outerplanar_implies_sp =
  QCheck.Test.make ~name:"maximal outerplanar implies series-parallel"
    ~count:30
    QCheck.(pair (int_range 3 40) (int_range 0 1000))
    (fun (n, seed) ->
      let g = Generators.random_maximal_outerplanar n ~seed in
      Properties.outerplanar.holds g && Minor_check.is_series_parallel g)

let prop_lr_demoucron_agree =
  QCheck.Test.make ~name:"left-right test agrees with Demoucron" ~count:120
    QCheck.(triple (int_range 5 28) (int_range 0 1000) (int_range 0 24))
    (fun (n, seed, extra) ->
      let g =
        Generators.add_random_edges (Generators.random_tree n ~seed) extra
          ~seed
      in
      Planarity.is_planar g = Lr_planarity.is_planar g)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_generated_planar_accepts;
      prop_lr_demoucron_agree;
      prop_k5_overlay_rejected;
      prop_minor_closed_under_contraction;
      prop_sp_implies_planar;
      prop_outerplanar_implies_sp;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "minorfree"
    [
      ( "blocks",
        [
          tc "two triangles" test_blocks_two_triangles;
          tc "bridges" test_blocks_bridge;
          tc "cycle" test_blocks_cycle;
          tc "edge partition" test_blocks_partition_edges;
          tc "biconnectivity" test_not_biconnected;
        ] );
      ( "planarity",
        [
          tc "known graphs" test_planarity_known;
          tc "disconnected" test_planarity_disconnected;
          tc "planted K5" test_planarity_k5_in_big_planar;
          tc "embedding face counts" test_embed_block_faces;
          tc "embedding pinned" test_embed_block_pinned;
          tc "embedding rejects" test_embed_block_rejects;
          tc "biconnected precondition" test_embed_block_requires_biconnected;
          tc "outerplanarity" test_outerplanarity;
        ] );
      ( "lr_planarity",
        [
          tc "known graphs" test_lr_known;
          tc "agrees with demoucron" test_lr_agrees_with_demoucron;
          tc "large instances" test_lr_large_planar;
        ] );
      ( "minors",
        [
          tc "subgraph isomorphism" test_subgraph_iso;
          tc "basic minors" test_minor_basic;
          tc "subdivision minors" test_minor_subdivision;
          tc "clique minor shortcuts" test_clique_minor_shortcuts;
          tc "series parallel" test_series_parallel;
        ] );
      ( "properties",
        [
          tc "membership" test_property_membership;
          tc "forbidden cliques" test_forbidden_cliques_consistent;
          tc "far from forest" test_far_from_forest;
          tc "far from planar" test_far_from_planar;
        ] );
      ("qcheck", qcheck_cases);
    ]
