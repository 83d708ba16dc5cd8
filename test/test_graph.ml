open Sparse_graph

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Graph core                                                          *)
(* ------------------------------------------------------------------ *)

let test_of_edges_basic () =
  let g = Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  Graph.check_invariants g;
  check "n" 4 (Graph.n g);
  check "m" 4 (Graph.m g);
  check "deg" 2 (Graph.degree g 1);
  checkb "mem" true (Graph.mem_edge g 0 3);
  checkb "not mem" false (Graph.mem_edge g 0 2)

let test_of_edges_dedup () =
  let g = Graph.of_edges 3 [ (0, 1); (1, 0); (1, 1); (2, 1); (1, 2) ] in
  Graph.check_invariants g;
  check "m dedups and drops loops" 2 (Graph.m g)

let test_of_edges_range () =
  Alcotest.check_raises "out of range" (Invalid_argument
    "Graph.of_edges: endpoint out of range (0,3), n=3")
    (fun () -> ignore (Graph.of_edges 3 [ (0, 3) ]))

let test_neighbor_at () =
  (* CSR indexing agrees with the neighbor list on assorted graphs *)
  let graphs =
    [ Generators.grid 4 5;
      Generators.random_tree 30 ~seed:7;
      Generators.random_apollonian 25 ~seed:11;
      Graph.of_edges 1 [] ]
  in
  List.iter
    (fun g ->
      for v = 0 to Graph.n g - 1 do
        let nbrs = Graph.neighbors g v in
        List.iteri
          (fun i w -> check "neighbor_at = nth neighbor" w (Graph.neighbor_at g v i))
          nbrs;
        check "degree bound" (List.length nbrs) (Graph.degree g v)
      done)
    graphs

let test_neighbor_at_bounds () =
  let g = Generators.path 3 in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  in
  expect_invalid "vertex too large" (fun () -> Graph.neighbor_at g 3 0);
  expect_invalid "vertex negative" (fun () -> Graph.neighbor_at g (-1) 0);
  expect_invalid "index too large" (fun () -> Graph.neighbor_at g 0 1);
  expect_invalid "index negative" (fun () -> Graph.neighbor_at g 1 (-1));
  check "valid lookup" 1 (Graph.neighbor_at g 0 0);
  check "middle vertex" 2 (Graph.neighbor_at g 1 1)

let test_endpoints_normalized () =
  let g = Graph.of_edges 3 [ (2, 0); (1, 0) ] in
  for e = 0 to Graph.m g - 1 do
    let u, v = Graph.endpoints g e in
    checkb "normalized" true (u < v)
  done

let test_find_edge () =
  let g = Graph.of_edges 5 [ (0, 4); (1, 3); (2, 4) ] in
  let e = Graph.find_edge g 4 0 in
  Alcotest.(check (pair int int)) "endpoints" (0, 4) (Graph.endpoints g e);
  Alcotest.check_raises "absent" Not_found (fun () ->
      ignore (Graph.find_edge g 0 1))

let test_max_degree () =
  let g = Graph_fixtures.star 7 in
  check "max degree" 7 (Graph.max_degree g);
  check "hub" 0 (Graph.max_degree_vertex g)

let test_degree_sum () =
  let g = Generators.random_apollonian 50 ~seed:1 in
  let total = ref 0 in
  for v = 0 to Graph.n g - 1 do
    total := !total + Graph.degree g v
  done;
  check "handshake" (2 * Graph.m g) !total

let test_iter_edges_order () =
  let g = Graph.of_edges 4 [ (3, 2); (0, 1); (0, 2) ] in
  let order = Graph.fold_edges g (fun acc _ u v -> (u, v) :: acc) [] in
  Alcotest.(check (list (pair int int)))
    "lexicographic ids" [ (2, 3); (0, 2); (0, 1) ] order

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)
(* ------------------------------------------------------------------ *)

let test_bfs_path () =
  let g = Generators.path 5 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |]
    (Traversal.bfs g 0)

let test_bfs_disconnected () =
  let g = Graph.of_edges 4 [ (0, 1) ] in
  let d = Traversal.bfs g 0 in
  check "unreachable" (-1) d.(2)

let test_bfs_multi () =
  let g = Generators.path 5 in
  let d = Traversal.bfs_multi g [ 0; 4 ] in
  Alcotest.(check (array int)) "multi distances" [| 0; 1; 2; 1; 0 |] d

let test_components () =
  let g = Graph.of_edges 6 [ (0, 1); (2, 3); (3, 4) ] in
  let _, count = Traversal.components g in
  check "three components" 3 count;
  checkb "not connected" false (Traversal.is_connected g);
  Alcotest.(check (list (list int)))
    "component list" [ [ 0; 1 ]; [ 2; 3; 4 ]; [ 5 ] ]
    (Traversal.component_list g)

let test_diameter_cycle () =
  let d = Traversal.diameter in
  check "n = 0" 0 (d (Graph.empty 0));
  check "n = 1" 0 (d (Graph.empty 1));
  check "K2" 1 (d (Generators.path 2));
  check "diameter P7" 6 (d (Generators.path 7));
  check "star" 2 (d (Graph_fixtures.star 9));
  check "diameter C10" 5 (d (Generators.cycle 10));
  check "odd cycle C11" 5 (d (Generators.cycle 11));
  check "diameter K5" 1 (d (Generators.complete 5));
  check "hypercube Q6" 6 (d (Generators.hypercube 6));
  check "grid 64x64" 126 (d (Generators.grid 64 64));
  (* the larger component (a 20-clique) has diameter 1, the smaller one
     (a 10-path placed after it) diameter 9 *)
  let two =
    Graph_fixtures.disjoint_union (Generators.complete 20) (Generators.path 10)
  in
  check "smaller component has the larger diameter" 9 (d two);
  check "isolated vertices" 0 (d (Graph.empty 5))

(* the bounding search's BFS count ([graph.diameter_bfs]) is pinned on
   the two bench graphs, the 64x64 grid and the planar workloads' fixed
   random Apollonian graph, and sums the same at every pool size *)
let test_diameter_sweep_counts () =
  let grid = Generators.grid 64 64 in
  let planar = Generators.random_apollonian 4096 ~seed:20220711 in
  let whole g = (Graph_ops.clusters g (Array.make (Graph.n g) 0) 1).(0) in
  let sweeps pool clusters =
    Obs.reset ();
    Obs.enable ();
    let diam =
      Obs.Span.with_ "pipeline.diameter" (fun () ->
          Graph_ops.max_cluster_diameter ~pool clusters)
    in
    let sums, _ = Obs.Agg.totals (Obs.snapshot_tree ()) in
    Obs.disable ();
    (diam, Obs.Agg.SMap.find_opt "graph.diameter_bfs" sums)
  in
  let seq = Parallel.Pool.sequential in
  let pair = Alcotest.(pair int (option int)) in
  Alcotest.check pair "grid 64x64" (126, Some 5) (sweeps seq [| whole grid |]);
  Alcotest.check pair "random apollonian 4096" (11, Some 21)
    (sweeps seq [| whole planar |]);
  let both = [| whole grid; whole planar |] in
  Alcotest.check pair "both, jobs 1" (126, Some 26) (sweeps seq both);
  Alcotest.check pair "both, jobs 4" (126, Some 26)
    (sweeps (Parallel.Pool.create ~jobs:4 ()) both)

let test_double_sweep_tree () =
  let g = Generators.random_tree 60 ~seed:3 in
  check "double sweep exact on trees" (Traversal.diameter g)
    (Traversal.diameter_double_sweep g)

let test_acyclic () =
  checkb "tree acyclic" true
    (Traversal.is_acyclic (Generators.random_tree 30 ~seed:7));
  checkb "cycle not" false (Traversal.is_acyclic (Generators.cycle 5));
  checkb "forest acyclic" true
    (Traversal.is_acyclic (Graph.of_edges 5 [ (0, 1); (2, 3) ]))

(* ------------------------------------------------------------------ *)
(* Graph ops                                                           *)
(* ------------------------------------------------------------------ *)

let test_induced_subgraph () =
  let g = Generators.cycle 6 in
  let sub, map = Graph_ops.induced_subgraph g [ 0; 1; 2; 4 ] in
  Graph.check_invariants sub;
  check "sub n" 4 (Graph.n sub);
  check "sub m" 2 (Graph.m sub);
  check "to_orig" 4 map.to_orig.(3);
  check "to_sub" 3 map.to_sub.(4);
  check "dropped" (-1) map.to_sub.(5);
  Graph.iter_edges sub (fun e u v ->
      let ou = map.to_orig.(u) and ov = map.to_orig.(v) in
      let orig = map.edge_to_orig.(e) in
      let a, b = Graph.endpoints g orig in
      checkb "edge maps back" true ((a, b) = (min ou ov, max ou ov)))

(* removing an edge is keeping every other one *)
let test_remove_edges () =
  let g = Generators.complete 4 in
  let e = Graph.find_edge g 0 1 in
  let others = List.filter (fun e' -> e' <> e) (List.init (Graph.m g) Fun.id) in
  let g', map = Graph_ops.subgraph_of_edges g others in
  Graph.check_invariants g';
  check "one less" 5 (Graph.m g');
  check "same n" 4 (Graph.n g');
  checkb "gone" false (Graph.mem_edge g' 0 1);
  Graph.iter_edges g' (fun e' u v ->
      Alcotest.(check (pair int int))
        "edge maps back" (u, v)
        (Graph.endpoints g map.edge_to_orig.(e')))

let test_remove_vertices () =
  let g = Generators.complete 5 in
  let g', map = Graph_ops.remove_vertices g [ 0 ] in
  check "K4 remains" 6 (Graph.m g');
  check "n" 4 (Graph.n g');
  check "relabel" 1 map.to_orig.(0)

let test_disjoint_union () =
  let g = Graph_fixtures.disjoint_union (Generators.cycle 3) (Generators.path 3) in
  check "n" 6 (Graph.n g);
  check "m" 5 (Graph.m g);
  checkb "no cross edge" false (Graph.mem_edge g 2 3)

let test_contract_edges () =
  let g = Generators.cycle 4 in
  let e = Graph.find_edge g 0 1 in
  let minor, labels = Graph_fixtures.contract_edges g [ e ] in
  check "triangle n" 3 (Graph.n minor);
  check "triangle m" 3 (Graph.m minor);
  check "merged labels" labels.(0) labels.(1)

let test_contract_parallel_collapse () =
  (* contracting one edge of a triangle gives a single edge, not a multi-edge *)
  let g = Generators.cycle 3 in
  let minor, _ = Graph_fixtures.contract_edges g [ 0 ] in
  check "n" 2 (Graph.n minor);
  check "m" 1 (Graph.m minor)

let test_subdivide () =
  let g = Generators.complete 3 in
  let e = Graph.find_edge g 0 1 in
  let g' = Graph_fixtures.subdivide g e 2 in
  check "n" 5 (Graph.n g');
  check "m" 5 (Graph.m g');
  checkb "direct edge gone" false (Graph.mem_edge g' 0 1);
  checkb "path present" true
    (Graph.mem_edge g' 0 3 && Graph.mem_edge g' 3 4 && Graph.mem_edge g' 4 1)

let test_cluster_partition () =
  let g = Generators.grid 2 4 in
  (* split into left and right 2x2 halves *)
  let labels = Array.init 8 (fun v -> if v mod 4 < 2 then 0 else 1) in
  let clusters = Graph_ops.clusters g labels 2 in
  check "two clusters" 2 (Array.length clusters);
  let vs0, sub0, _ = clusters.(0) in
  check "cluster 0 size" 4 (List.length vs0);
  check "cluster 0 edges" 4 (Graph.m sub0);
  check "two crossing edges" 2 (List.length (Graph_ops.inter_edges g labels));
  check "both halves connected, diameter 2" 2
    (Graph_ops.max_cluster_diameter clusters)

let test_cluster_geometry_degenerate () =
  let empty = Graph.empty 0 in
  Alcotest.(check (list int)) "n = 0: no inter edges" []
    (Graph_ops.inter_edges empty [||]);
  check "n = 0: no clusters" 0 (Array.length (Graph_ops.clusters empty [||] 0));
  check "n = 0: diameter 0" 0
    (Graph_ops.max_cluster_diameter (Graph_ops.clusters empty [||] 0));
  check "n = 0: no classes" 0 (snd (Graph_ops.split_components empty [||]));
  let one = Graph.empty 1 in
  check "n = 1: singleton diameter 0" 0
    (Graph_ops.max_cluster_diameter (Graph_ops.clusters one [| 0 |] 1));
  (* labels 0 and 1 unused: empty clusters are vacuously connected *)
  let unused = Graph_ops.clusters one [| 2 |] 3 in
  Alcotest.(check (list (list int))) "non-contiguous labels" [ []; []; [ 0 ] ]
    (Array.to_list (Array.map (fun (vs, _, _) -> vs) unused));
  check "empty clusters diameter 0" 0 (Graph_ops.max_cluster_diameter unused);
  let isolated = Graph.empty 3 in
  check "isolated vertices sharing a label are disconnected" max_int
    (Graph_ops.max_cluster_diameter
       (Graph_ops.clusters isolated [| 0; 0; 1 |] 2));
  Alcotest.(check (pair (array int) int)) "isolated vertices split apart"
    ([| 0; 1; 2 |], 3)
    (Graph_ops.split_components isolated [| 0; 0; 0 |]);
  let p3 = Generators.path 3 in
  Alcotest.check_raises "label above k-1"
    (Invalid_argument
       "Graph_ops.clusters: vertex 1 has label 2, outside [0, 1]")
    (fun () -> ignore (Graph_ops.clusters p3 [| 0; 2; 1 |] 2));
  Alcotest.check_raises "negative label"
    (Invalid_argument
       "Graph_ops.clusters: vertex 2 has label -1, outside [0, 1]")
    (fun () -> ignore (Graph_ops.clusters p3 [| 0; 1; -1 |] 2));
  Alcotest.check_raises "one label per vertex"
    (Invalid_argument "Graph_ops.clusters: 2 labels for 3 vertices")
    (fun () -> ignore (Graph_ops.clusters p3 [| 0; 1 |] 2));
  (* path 0-1-2-3-4 labelled a b a a b: classes {0} {1} {2,3} {4} *)
  Alcotest.(check (pair (array int) int)) "numbered by smallest vertex"
    ([| 0; 1; 2; 2; 3 |], 4)
    (Graph_ops.split_components (Generators.path 5) [| 7; 9; 7; 7; 9 |])

(* ------------------------------------------------------------------ *)
(* Weights                                                             *)
(* ------------------------------------------------------------------ *)

let test_weights () =
  let g = Generators.cycle 4 in
  let w = Weights.random g ~max_w:10 ~seed:2 in
  checkb "max bound respected" true (Weights.max_weight w <= 10);
  Graph.iter_edges g (fun e _ _ ->
      checkb "positive" true (Weights.get w e >= 1));
  let u = Weights.of_array g [| 3; 1; 4; 1 |] in
  check "of_array keeps edge order" 4 (Weights.get u 2);
  check "max weight" 4 (Weights.max_weight u)

let test_weights_restrict () =
  let g = Generators.complete 4 in
  let w = Weights.of_array g (Array.init (Graph.m g) (fun e -> e + 1)) in
  let sub, map = Graph_ops.induced_subgraph g [ 0; 1; 2 ] in
  let w' = Weights.restrict w map in
  Graph.iter_edges sub (fun e _ _ ->
      check "restricted weight" (Weights.get w map.edge_to_orig.(e))
        (Weights.get w' e))

let test_weights_invalid () =
  let g = Generators.path 3 in
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Weights: weights must be positive integers") (fun () ->
      ignore (Weights.of_array g [| 1; 0 |]))

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let test_grid_counts () =
  let g = Generators.grid 3 4 in
  check "n" 12 (Graph.n g);
  check "m" 17 (Graph.m g);
  check "max deg" 4 (Graph.max_degree g)

let test_torus_regular () =
  let g = Graph_fixtures.torus 4 5 in
  check "m" 40 (Graph.m g);
  for v = 0 to Graph.n g - 1 do
    check "4-regular" 4 (Graph.degree g v)
  done

let test_hypercube () =
  let g = Generators.hypercube 4 in
  check "n" 16 (Graph.n g);
  check "m" 32 (Graph.m g);
  check "diameter" 4 (Traversal.diameter g)

let test_double_star_shape () =
  let g = Graph_fixtures.double_star 3 in
  check "n" 5 (Graph.n g);
  check "m" 6 (Graph.m g);
  check "spoke degree" 2 (Graph.degree g 2)

let test_barbell_low_conductance () =
  let g = Generators.barbell 5 3 in
  check "n" 13 (Graph.n g);
  checkb "connected" true (Traversal.is_connected g)

let test_random_tree_is_tree () =
  for seed = 0 to 4 do
    let g = Generators.random_tree 37 ~seed in
    check "m = n-1" 36 (Graph.m g);
    checkb "connected" true (Traversal.is_connected g)
  done

let test_random_regular_degrees () =
  let g = Generators.random_regular 20 3 ~seed:4 in
  for v = 0 to 19 do
    check "3-regular" 3 (Graph.degree g v)
  done

let test_k_tree_density () =
  let g = Generators.random_k_tree 30 2 ~seed:6 in
  (* 2-tree on n vertices has 2n - 3 edges *)
  check "2-tree edges" 57 (Graph.m g);
  checkb "connected" true (Traversal.is_connected g)

let test_apollonian_planar_density () =
  let g = Generators.random_apollonian 50 ~seed:8 in
  (* maximal planar: 3n - 6 edges *)
  check "3n - 6 edges" 144 (Graph.m g);
  checkb "connected" true (Traversal.is_connected g)

let test_outerplanar_density () =
  let g = Generators.random_maximal_outerplanar 20 ~seed:10 in
  (* maximal outerplanar: 2n - 3 edges *)
  check "2n - 3 edges" 37 (Graph.m g);
  checkb "connected" true (Traversal.is_connected g)

let test_plant_k5s () =
  let g = Generators.grid 5 5 in
  let g' = Generators.plant_k5s g 2 ~seed:12 in
  checkb "denser" true (Graph.m g' > Graph.m g);
  check "same n" 25 (Graph.n g')

let test_attach_stars () =
  let g = Generators.cycle 5 in
  let g' = Generators.attach_stars g ~stars:2 ~leaves:3 ~seed:14 in
  check "n grows" 11 (Graph.n g');
  check "m grows" 11 (Graph.m g')

let test_attach_double_stars () =
  let g = Generators.cycle 5 in
  let g' = Generators.attach_double_stars g ~hubs:1 ~spokes:4 ~seed:16 in
  check "n grows" 9 (Graph.n g');
  check "m grows" 13 (Graph.m g')

let test_sign_labels () =
  let g = Generators.grid 4 4 in
  let communities = Array.init 16 (fun v -> v / 8) in
  let labels =
    Generators.planted_sign_labels g communities ~noise:0. ~seed:20
  in
  Graph.iter_edges g (fun e u v ->
      checkb "label matches community" (communities.(u) = communities.(v))
        labels.(e))

(* ------------------------------------------------------------------ *)
(* Graph IO                                                            *)
(* ------------------------------------------------------------------ *)

let graphs_equal a b =
  Graph.n a = Graph.n b && Graph.m a = Graph.m b
  && Graph.fold_edges a (fun acc _ u v -> acc && Graph.mem_edge b u v) true

let test_io_roundtrip () =
  let g = Generators.random_apollonian 30 ~seed:80 in
  let g' = Graph_io.of_string (Graph_io.to_string g) in
  checkb "unweighted roundtrip" true (graphs_equal g g')

let test_io_comments_and_errors () =
  let g = Graph_io.of_string "# hi\n3 2\n0 1\n# mid\n1 2\n" in
  check "n" 3 (Graph.n g);
  check "m" 2 (Graph.m g);
  (match Graph_io.of_string "3 5\n0 1\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on count mismatch");
  (match Graph_io.of_string "2 1\n0 1 5\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on a weighted edge line");
  match Graph_io.of_string "nope" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on bad header"

let test_io_file_roundtrip () =
  let g = Generators.random_tree 25 ~seed:82 in
  let path = Filename.temp_file "graphio" ".txt" in
  Graph_io.save g ~path;
  let g' = Graph_io.of_string (In_channel.with_open_bin path In_channel.input_all) in
  Sys.remove path;
  checkb "file roundtrip" true (graphs_equal g g')

let test_dot_output () =
  let g = Generators.cycle 4 in
  let dot = Graph_io.to_dot ~labels:[| 0; 0; 1; 1 |] g in
  checkb "has graph header" true
    (String.length dot > 10 && String.sub dot 0 7 = "graph G");
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "cluster 1 colored" true (contains dot "3 [fillcolor=\"#ee6677\"]");
  checkb "has an edge" true (contains dot "0 -- 1;")

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let arb_graph =
  QCheck.make
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=%s" n
        (String.concat ";"
           (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) edges)))
    QCheck.Gen.(
      int_range 1 30 >>= fun n ->
      let edge = map2 (fun a b -> (a mod n, b mod n)) nat nat in
      map (fun es -> (n, es)) (list_size (int_range 0 60) edge))

let prop_invariants =
  QCheck.Test.make ~name:"CSR invariants hold for arbitrary edge lists"
    ~count:300 arb_graph (fun (n, edges) ->
      let g = Graph.of_edges n edges in
      Graph.check_invariants g;
      (* edge ids follow the lexicographic order of the distinct
         normalized non-loop pairs *)
      let naive =
        List.filter_map
          (fun (u, v) -> if u = v then None else Some (min u v, max u v))
          edges
        |> List.sort_uniq compare
      in
      Array.to_list (Graph.edges g) = naive)

let prop_handshake =
  QCheck.Test.make ~name:"degree sum equals 2m" ~count:300 arb_graph
    (fun (n, edges) ->
      let g = Graph.of_edges n edges in
      let s = ref 0 in
      for v = 0 to n - 1 do
        s := !s + Graph.degree g v
      done;
      !s = 2 * Graph.m g)

let prop_induced_subgraph_edges =
  QCheck.Test.make ~name:"induced subgraph keeps exactly internal edges"
    ~count:200
    QCheck.(pair arb_graph (list small_nat))
    (fun ((n, edges), vs) ->
      let g = Graph.of_edges n edges in
      let vs = List.filter (fun v -> v < n) vs in
      let sub, map = Graph_ops.induced_subgraph g vs in
      Graph.check_invariants sub;
      let expected =
        Graph.fold_edges g
          (fun acc _ u v ->
            if map.to_sub.(u) >= 0 && map.to_sub.(v) >= 0 then acc + 1 else acc)
          0
      in
      let maps_back e =
        let a, b = Graph.endpoints sub e in
        let u, v = Graph.endpoints g map.edge_to_orig.(e) in
        (map.to_orig.(a), map.to_orig.(b)) = (u, v)
      in
      Graph.m sub = expected
      && List.for_all maps_back (List.init (Graph.m sub) Fun.id))

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~name:"bfs distances obey edge triangle inequality"
    ~count:200 arb_graph (fun (n, edges) ->
      let g = Graph.of_edges n edges in
      let d = Traversal.bfs g 0 in
      Graph.fold_edges g
        (fun ok _ u v ->
          ok
          && ((d.(u) < 0 && d.(v) < 0)
             || (d.(u) >= 0 && d.(v) >= 0 && abs (d.(u) - d.(v)) <= 1)))
        true)

let prop_contract_minor_smaller =
  QCheck.Test.make ~name:"contraction never increases n or m" ~count:200
    arb_graph (fun (n, edges) ->
      let g = Graph.of_edges n edges in
      if Graph.m g = 0 then true
      else begin
        let minor, _ = Graph_fixtures.contract_edges g [ 0 ] in
        Graph.n minor < n && Graph.m minor < Graph.m g
      end)

(* the shared int sort: the prefix comes out as List.sort would order it
   (repeats, sorted and reversed runs included) and the tail is untouched *)
let prop_sort_prefix =
  QCheck.Test.make ~name:"sort_prefix sorts exactly the prefix" ~count:300
    QCheck.(pair (list (int_bound 40)) small_nat)
    (fun (xs, cut) ->
      let a = Array.of_list xs in
      let len = Int.min cut (Array.length a) in
      let tail = Array.sub a len (Array.length a - len) in
      Graph.sort_prefix a len;
      Array.to_list (Array.sub a 0 len)
      = List.sort Int.compare (List.filteri (fun i _ -> i < len) xs)
      && Array.sub a len (Array.length a - len) = tail)

(* graphs with n in [0, 12] (n = 0 and n = 1 included) and labels drawn
   from [0, n + 2], so classes are often non-contiguous, singleton or
   disconnected *)
let arb_labelled =
  QCheck.make
    ~print:(fun (n, edges, labels) ->
      Printf.sprintf "n=%d edges=%s labels=%s" n
        (String.concat ";"
           (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) edges))
        (String.concat "," (Array.to_list (Array.map string_of_int labels))))
    QCheck.Gen.(
      int_range 0 12 >>= fun n ->
      let edge = map2 (fun a b -> (a mod n, b mod n)) nat nat in
      let edges =
        if n = 0 then return [] else list_size (int_range 0 24) edge
      in
      map2
        (fun es ls -> (n, es, ls))
        edges
        (array_size (return n) (int_bound (n + 2))))

(* naive oracles: each reads the graph edge by edge, never through the
   induced subgraphs or Traversal *)
let oracle_same_label_classes g labels =
  let n = Graph.n g in
  (* relax every same-label edge to a fixpoint: each vertex ends at the
     smallest id of its same-label component *)
  let root = Array.init n (fun v -> v) in
  let changed = ref true in
  while !changed do
    changed := false;
    Graph.iter_edges g (fun _ u v ->
        if labels.(u) = labels.(v) && root.(u) <> root.(v) then begin
          let r = Int.min root.(u) root.(v) in
          root.(u) <- r;
          root.(v) <- r;
          changed := true
        end)
  done;
  let number = Hashtbl.create 16 in
  let out =
    Array.init n (fun v ->
        let r = root.(v) in
        match Hashtbl.find_opt number r with
        | Some c -> c
        | None ->
            let c = Hashtbl.length number in
            Hashtbl.add number r c;
            c)
  in
  (out, Hashtbl.length number)

(* BFS from [s] over edges inside [s]'s label class *)
let oracle_class_dist g labels s =
  let dist = Array.make (Graph.n g) (-1) in
  dist.(s) <- 0;
  let q = Queue.create () in
  Queue.add s q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Graph.iter_neighbors g v (fun w ->
        if dist.(w) < 0 && labels.(w) = labels.(s) then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w q
        end)
  done;
  dist

let oracle_max_diameter g labels =
  let best = ref 0 in
  for s = 0 to Graph.n g - 1 do
    let dist = oracle_class_dist g labels s in
    Array.iteri
      (fun v d ->
        if labels.(v) = labels.(s) then
          best := if d < 0 then max_int else max !best d)
      dist
  done;
  !best

let prop_geometry_matches_oracles =
  QCheck.Test.make ~name:"cluster geometry matches naive oracles" ~count:500
    arb_labelled (fun (n, edges, labels) ->
      let g = Graph.of_edges n edges in
      let k = n + 3 in
      let naive_inter =
        List.filter
          (fun e ->
            let u, v = Graph.endpoints g e in
            labels.(u) <> labels.(v))
          (List.init (Graph.m g) Fun.id)
      in
      let clusters = Graph_ops.clusters g labels k in
      let members_ok =
        Array.for_all Fun.id
          (Array.mapi
             (fun l (vs, sub, (map : Graph_ops.mapping)) ->
               let naive =
                 List.filter (fun v -> labels.(v) = l) (List.init n Fun.id)
               in
               let internal =
                 Graph.fold_edges g
                   (fun acc _ u v ->
                     if labels.(u) = l && labels.(v) = l then acc + 1 else acc)
                   0
               in
               vs = naive
               && Array.to_list map.to_orig = naive
               && Graph.m sub = internal)
             clusters)
      in
      let pool = Parallel.Pool.create ~jobs:4 () in
      let pooled = Graph_ops.clusters ~pool g labels k in
      Graph_ops.inter_edges g labels = naive_inter
      && members_ok
      && Array.map (fun (vs, _, _) -> vs) pooled
         = Array.map (fun (vs, _, _) -> vs) clusters
      && Graph_ops.max_cluster_diameter clusters = oracle_max_diameter g labels
      && Graph_ops.max_cluster_diameter ~pool clusters
         = oracle_max_diameter g labels
      && Graph_ops.split_components g labels
         = oracle_same_label_classes g labels)

(* all-pairs oracle: the largest finite BFS distance over every source *)
let oracle_diameter g =
  let one_class = Array.make (Graph.n g) 0 in
  let best = ref 0 in
  for s = 0 to Graph.n g - 1 do
    Array.iter (fun d -> best := max !best d) (oracle_class_dist g one_class s)
  done;
  !best

(* [g] with its vertex ids randomly permuted *)
let shuffle g ~seed =
  let n = Graph.n g in
  let st = Random.State.make [| seed; 89 |] in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  Graph.of_edges n
    (Graph.fold_edges g (fun acc _ u v -> (perm.(u), perm.(v)) :: acc) [])

(* graphs up to n = 300: random sparse graphs, trees, grids, Apollonian
   graphs, and disjoint unions of two of them with isolated vertices in
   between, shuffled so that components interleave in id order *)
let arb_diameter_graph =
  let open QCheck.Gen in
  let family max_n =
    oneof
      [
        ( int_range 1 max_n >>= fun n ->
          map
            (fun es -> Graph.of_edges n es)
            (list_size (int_range 0 (2 * n))
               (pair (int_bound (n - 1)) (int_bound (n - 1)))) );
        map2
          (fun n seed -> Generators.random_tree n ~seed)
          (int_range 1 max_n) nat;
        map2 Generators.grid (int_range 1 17) (int_range 1 17);
        map2
          (fun n seed -> Generators.random_apollonian n ~seed)
          (int_range 3 max_n) nat;
      ]
  in
  let union =
    map4
      (fun a isolated b seed ->
        let gap = Graph.empty isolated in
        Graph_fixtures.disjoint_union (Graph_fixtures.disjoint_union a gap) b
        |> shuffle ~seed)
      (family 140) (int_range 0 5) (family 140) nat
  in
  QCheck.make
    ~print:(fun g ->
      Printf.sprintf "n=%d edges=%s" (Graph.n g)
        (String.concat ";"
           (Array.to_list
              (Array.map
                 (fun (u, v) -> Printf.sprintf "(%d,%d)" u v)
                 (Graph.edges g)))))
    (oneof [ family 300; union ])

let prop_diameter_matches_oracle =
  QCheck.Test.make ~name:"diameter equals all-pairs oracle" ~count:300
    arb_diameter_graph (fun g -> Traversal.diameter g = oracle_diameter g)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_geometry_matches_oracles;
      prop_diameter_matches_oracle;
      prop_invariants;
      prop_handshake;
      prop_induced_subgraph_edges;
      prop_bfs_triangle_inequality;
      prop_contract_minor_smaller;
      prop_sort_prefix;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "sparse_graph"
    [
      ( "graph",
        [
          tc "of_edges basic" test_of_edges_basic;
          tc "of_edges dedup" test_of_edges_dedup;
          tc "of_edges range check" test_of_edges_range;
          tc "endpoints normalized" test_endpoints_normalized;
          tc "neighbor_at" test_neighbor_at;
          tc "neighbor_at bounds" test_neighbor_at_bounds;
          tc "find_edge" test_find_edge;
          tc "max degree" test_max_degree;
          tc "handshake lemma" test_degree_sum;
          tc "edge id order" test_iter_edges_order;
        ] );
      ( "traversal",
        [
          tc "bfs path" test_bfs_path;
          tc "bfs disconnected" test_bfs_disconnected;
          tc "bfs multi-source" test_bfs_multi;
          tc "components" test_components;
          tc "diameter known graphs" test_diameter_cycle;
          tc "diameter sweep counts" test_diameter_sweep_counts;
          tc "double sweep on trees" test_double_sweep_tree;
          tc "acyclicity" test_acyclic;
        ] );
      ( "graph_ops",
        [
          tc "induced subgraph" test_induced_subgraph;
          tc "remove edges" test_remove_edges;
          tc "remove vertices" test_remove_vertices;
          tc "disjoint union" test_disjoint_union;
          tc "contract edge" test_contract_edges;
          tc "contract collapses parallels" test_contract_parallel_collapse;
          tc "subdivide" test_subdivide;
          tc "cluster partition" test_cluster_partition;
          tc "cluster geometry degenerate" test_cluster_geometry_degenerate;
        ] );
      ( "weights",
        [
          tc "basics" test_weights;
          tc "restrict to subgraph" test_weights_restrict;
          tc "reject non-positive" test_weights_invalid;
        ] );
      ( "generators",
        [
          tc "grid counts" test_grid_counts;
          tc "torus regular" test_torus_regular;
          tc "hypercube" test_hypercube;
          tc "double star" test_double_star_shape;
          tc "barbell" test_barbell_low_conductance;
          tc "random tree" test_random_tree_is_tree;
          tc "random regular" test_random_regular_degrees;
          tc "k-tree density" test_k_tree_density;
          tc "apollonian density" test_apollonian_planar_density;
          tc "outerplanar density" test_outerplanar_density;
          tc "plant K5s" test_plant_k5s;
          tc "attach stars" test_attach_stars;
          tc "attach double stars" test_attach_double_stars;
          tc "planted sign labels" test_sign_labels;
        ] );
      ( "graph_io",
        [
          tc "roundtrip" test_io_roundtrip;
          tc "comments and errors" test_io_comments_and_errors;
          tc "file roundtrip" test_io_file_roundtrip;
          tc "dot export" test_dot_output;
        ] );
      ("properties", qcheck_cases);
    ]
