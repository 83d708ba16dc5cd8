(* Edge-case and cross-module integration coverage that does not fit the
   per-library suites. *)

open Sparse_graph

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Degenerate graphs through every layer                               *)
(* ------------------------------------------------------------------ *)

let test_tiny_graphs_everywhere () =
  let singleton = Graph.empty 1 in
  let edge = Generators.path 2 in
  (* decomposition *)
  let d1 = Spectral.Expander_decomposition.decompose singleton ~epsilon:0.5 in
  check "singleton one cluster" 1 d1.k;
  let d2 = Spectral.Expander_decomposition.decompose edge ~epsilon:0.5 in
  check "edge one cluster" 1 d2.k;
  (* solvers *)
  check "mis singleton" 1 (Optimize.Mis.exact_size singleton);
  check "mcm edge" 1
    (Matching.Blossom.size (Matching.Blossom.max_cardinality_matching edge));
  check "dominating edge" 1 (Optimize.Dominating.exact_size edge);
  (* planarity *)
  checkb "tiny planar (demoucron)" true (Minorfree.Planarity.is_planar edge);
  checkb "tiny planar (lr)" true (Minorfree.Lr_planarity.is_planar edge);
  (* pipeline *)
  let p = Core.Pipeline.prepare ~mode:Core.Pipeline.Charged edge ~epsilon:0.5 ~seed:1 in
  check "pipeline on an edge" 1 p.report.k

let test_empty_graph_everywhere () =
  let g = Graph.empty 4 in
  let d = Spectral.Expander_decomposition.decompose g ~epsilon:0.5 in
  check "all singletons" 4 d.k;
  check "mis takes everything" 4 (Optimize.Mis.exact_size g);
  check "vc empty" 0 (Optimize.Vertex_cover.exact_size g);
  check "dominating = n" 4 (Optimize.Dominating.exact_size g);
  checkb "planar" true (Minorfree.Planarity.is_planar g);
  let r = Core.App_mis.run ~mode:Core.Pipeline.Charged g ~epsilon:0.3 ~seed:2 in
  check "app mis takes everything" 4 r.size

let test_self_contained_star () =
  (* a star stresses degree skew in every phase *)
  let g = Graph_fixtures.star 40 in
  let p = Core.Pipeline.prepare g ~epsilon:0.4 ~seed:3 in
  check "star is one cluster" 1 p.report.k;
  check "hub is leader" 0 p.leader_of.(17);
  let mis = Core.App_mis.run ~mode:Core.Pipeline.Charged g ~epsilon:0.4 ~seed:3 in
  check "leaves win" 40 mis.size

(* ------------------------------------------------------------------ *)
(* Cluster view                                                        *)
(* ------------------------------------------------------------------ *)

let test_cluster_view_accessors () =
  let g = Generators.grid 2 4 in
  let labels = Array.init 8 (fun v -> if v mod 4 < 2 then 0 else 1) in
  let view = Distr.Cluster_view.of_labels g labels in
  check "intra degree corner" 2 (Distr.Cluster_view.intra_degree view 0);
  Alcotest.(check (list (pair int int))) "flood" [ (1, 7); (4, 7) ]
    (Distr.Cluster_view.flood view 0 7);
  Alcotest.check_raises "bad labels"
    (Invalid_argument "Cluster_view.of_labels: label array length mismatch")
    (fun () -> ignore (Distr.Cluster_view.of_labels g [| 0 |]))

(* ------------------------------------------------------------------ *)
(* Preprocess mapping integrity                                        *)
(* ------------------------------------------------------------------ *)

let test_preprocess_mapping_integrity () =
  for seed = 0 to 4 do
    let g =
      Generators.attach_stars (Generators.random_planar 25 0.5 ~seed)
        ~stars:5 ~leaves:4 ~seed
    in
    let r = Matching.Preprocess.eliminate_fixpoint g in
    (* to_orig/to_sub are inverse on survivors *)
    Array.iteri
      (fun sub orig -> check "inverse maps" sub r.mapping.to_sub.(orig))
      r.mapping.to_orig;
    (* removed vertices map nowhere *)
    List.iter (fun v -> check "removed unmapped" (-1) r.mapping.to_sub.(v))
      r.removed;
    (* every reduced edge corresponds to an original edge on the same pair *)
    Graph.iter_edges r.graph (fun e u v ->
        let ou = r.mapping.to_orig.(u) and ov = r.mapping.to_orig.(v) in
        let orig = r.mapping.edge_to_orig.(e) in
        let a, b = Graph.endpoints g orig in
        checkb "edge maps to the same endpoints" true
          ((a, b) = (min ou ov, max ou ov)))
  done

(* ------------------------------------------------------------------ *)
(* Blob chain generator                                                *)
(* ------------------------------------------------------------------ *)

let test_blob_chain_structure () =
  let g = Generators.blob_chain ~blobs:4 ~blob_size:10 ~seed:5 in
  check "n" 40 (Graph.n g);
  checkb "connected" true (Traversal.is_connected g);
  checkb "planar" true (Minorfree.Lr_planarity.is_planar g);
  (* exactly 3 bridges *)
  let bridges =
    List.length
      (List.filter
         (fun b -> List.length b = 1)
         (Minorfree.Blocks.blocks g))
  in
  check "three bridges" 3 bridges;
  Alcotest.check_raises "bad params"
    (Invalid_argument
       "Generators.blob_chain: need blobs >= 1 and blob_size >= 3") (fun () ->
      ignore (Generators.blob_chain ~blobs:0 ~blob_size:5 ~seed:0))

(* ------------------------------------------------------------------ *)
(* Weighted matching reconstruction (qcheck)                           *)
(* ------------------------------------------------------------------ *)

let arb_small =
  QCheck.make
    ~print:(fun (n, seed, extra) ->
      Printf.sprintf "n=%d seed=%d extra=%d" n seed extra)
    QCheck.Gen.(
      map3
        (fun n seed extra -> (n, seed, extra))
        (int_range 2 14) (int_range 0 10_000) (int_range 0 12))

let build (n, seed, extra) =
  Generators.add_random_edges (Generators.random_tree n ~seed) extra ~seed

let prop_mwm_reconstruction_consistent =
  QCheck.Test.make ~name:"subset-DP reconstruction matches its value"
    ~count:150 arb_small (fun input ->
      let _, seed, _ = input in
      let g = build input in
      let w = Weights.random g ~max_w:40 ~seed in
      let value, edges = Matching.Exact_small.max_weight_matching_edges g w in
      (* value = sum of edge weights, edges form a matching *)
      let used = Array.make (Graph.n g) false in
      let sum = ref 0 in
      let ok = ref true in
      List.iter
        (fun e ->
          let u, v = Graph.endpoints g e in
          if used.(u) || used.(v) then ok := false;
          used.(u) <- true;
          used.(v) <- true;
          sum := !sum + Weights.get w e)
        edges;
      !ok && !sum = value
      && value = Matching.Exact_small.max_weight_matching g w)

let prop_scaling_never_worse_than_empty =
  QCheck.Test.make ~name:"scaling output weight is consistent with its mate"
    ~count:80 arb_small (fun input ->
      let _, seed, _ = input in
      let g = build input in
      let w = Weights.random g ~max_w:40 ~seed in
      let mate = Matching.Scaling.run g w in
      Matching.Blossom.is_valid_matching g mate
      && Matching.Approx.weight g w mate >= 0)

let prop_io_roundtrip =
  QCheck.Test.make ~name:"graph IO roundtrip preserves the edge set"
    ~count:100 arb_small (fun input ->
      let g = build input in
      let g' = Graph_io.of_string (Graph_io.to_string g) in
      Graph.n g = Graph.n g'
      && Graph.m g = Graph.m g'
      && Graph.fold_edges g (fun acc _ u v -> acc && Graph.mem_edge g' u v) true)

let prop_partition_cut_fraction_bounds =
  QCheck.Test.make ~name:"cut fraction always in [0, 1]" ~count:80
    QCheck.(pair arb_small (int_range 1 5))
    (fun (input, parts) ->
      let g = build input in
      let labels = Array.init (Graph.n g) (fun v -> v mod parts) in
      let p = Decomp.Partition.of_labels g labels in
      let f = Decomp.Partition.cut_fraction g p in
      f >= 0. && f <= 1.)

let prop_lr_planarity_minor_closed =
  QCheck.Test.make ~name:"LR planarity is preserved under edge contraction"
    ~count:60 arb_small (fun input ->
      let g = build input in
      if Graph.m g = 0 || not (Minorfree.Lr_planarity.is_planar g) then true
      else begin
        let minor, _ = Graph_fixtures.contract_edges g [ 0 ] in
        Minorfree.Lr_planarity.is_planar minor
      end)

let prop_decomposition_deterministic =
  QCheck.Test.make ~name:"decomposition is deterministic for a fixed seed"
    ~count:40 arb_small (fun input ->
      let g = build input in
      let a = Spectral.Expander_decomposition.decompose g ~epsilon:0.3 in
      let b = Spectral.Expander_decomposition.decompose g ~epsilon:0.3 in
      a.labels = b.labels)

let prop_modes_agree =
  QCheck.Test.make
    ~name:"Charged and Simulated pipelines produce identical clusterings"
    ~count:25 arb_small (fun input ->
      let g = build input in
      let a =
        Core.Pipeline.prepare ~mode:Core.Pipeline.Charged g ~epsilon:0.4
          ~seed:7
      in
      let b =
        Core.Pipeline.prepare ~mode:Core.Pipeline.Simulated g ~epsilon:0.4
          ~seed:7
      in
      a.leader_of = b.leader_of
      && a.decomposition.labels = b.decomposition.labels)

let prop_io_fuzz_never_crashes =
  QCheck.Test.make ~name:"graph IO parser fails cleanly on junk" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_range 0 60))
    (fun junk ->
      match Graph_io.of_string junk with
      | _ -> true
      | exception Failure _ -> true
      | exception Invalid_argument _ -> true)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_mwm_reconstruction_consistent;
      prop_decomposition_deterministic;
      prop_modes_agree;
      prop_io_fuzz_never_crashes;
      prop_scaling_never_worse_than_empty;
      prop_io_roundtrip;
      prop_partition_cut_fraction_bounds;
      prop_lr_planarity_minor_closed;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "edge_cases"
    [
      ( "degenerate",
        [
          tc "tiny graphs through every layer" test_tiny_graphs_everywhere;
          tc "empty graph through every layer" test_empty_graph_everywhere;
          tc "star stress" test_self_contained_star;
        ] );
      ("cluster_view", [ tc "accessors" test_cluster_view_accessors ]);
      ("preprocess", [ tc "mapping integrity" test_preprocess_mapping_integrity ]);
      ("blob_chain", [ tc "structure" test_blob_chain_structure ]);
      ("qcheck", qcheck_cases);
    ]
