open Sparse_graph
open Distr

let checkb = Alcotest.(check bool)
let check = Alcotest.(check int)

(* clustered views used across tests: whole-graph and decomposition-based *)
let decomposed_view g eps =
  let d = Spectral.Expander_decomposition.decompose g ~epsilon:eps in
  Cluster_view.of_labels g d.labels

let diam_bound (view : Cluster_view.t) =
  (* safe bound: max cluster diameter, computed centrally *)
  let g = view.graph in
  let n = Graph.n g in
  let best = ref 1 in
  for v = 0 to n - 1 do
    let dist = Array.make n (-1) in
    let queue = Queue.create () in
    dist.(v) <- 0;
    Queue.add v queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Array.iter
        (fun w ->
          if dist.(w) < 0 then begin
            dist.(w) <- dist.(u) + 1;
            Queue.add w queue
          end)
        view.intra.(u)
    done;
    Array.iter (fun d -> if d > !best then best := d) dist
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Leader election                                                     *)
(* ------------------------------------------------------------------ *)

let test_leader_whole_star () =
  let view = Cluster_view.whole (Graph_fixtures.star 6) in
  let r = Leader_election.run view ~rounds:2 in
  checkb "valid" true (Leader_election.check view r);
  check "hub elected" 0 r.leader_of.(3);
  check "leader degree" 6 r.leader_deg.(3)

let test_leader_tie_break () =
  (* cycle: all degrees equal; largest id must win *)
  let view = Cluster_view.whole (Generators.cycle 7) in
  let r = Leader_election.run view ~rounds:7 in
  checkb "valid" true (Leader_election.check view r);
  check "largest id wins ties" 6 r.leader_of.(0)

let test_leader_clustered () =
  let g = Generators.random_apollonian 80 ~seed:1 in
  let view = decomposed_view g 0.3 in
  let r = Leader_election.run view ~rounds:(diam_bound view) in
  checkb "valid across clusters" true (Leader_election.check view r)

let test_leader_insufficient_rounds_detected () =
  let view = Cluster_view.whole (Generators.path 10) in
  let r = Leader_election.run view ~rounds:2 in
  (* vertex 0 cannot hear about the far end in 2 rounds; check must fail
     because agreement fails *)
  checkb "check detects failure" false (Leader_election.check view r)

(* ------------------------------------------------------------------ *)
(* BFS tree + broadcast                                                *)
(* ------------------------------------------------------------------ *)

let test_bfs_tree_whole () =
  let g = Generators.grid 5 6 in
  let view = Cluster_view.whole g in
  let roots = Array.init (Graph.n g) (fun v -> v = 7) in
  let r = Bfs_tree.run view ~roots ~rounds:12 in
  checkb "valid" true (Bfs_tree.check view r ~roots)

let test_bfs_tree_clustered () =
  let g = Generators.grid 8 8 in
  let view = decomposed_view g 0.3 in
  let leaders = Leader_election.run view ~rounds:(diam_bound view) in
  let roots = Array.init (Graph.n g) (fun v -> leaders.leader_of.(v) = v) in
  let r = Bfs_tree.run view ~roots ~rounds:(diam_bound view + 1) in
  checkb "valid" true (Bfs_tree.check view r ~roots)

let test_bfs_flood_stats_pinned () =
  (* the leader flood on E9's instance: one word per intra edge per
     direction, the cost of the framework's final broadcast *)
  let g = Generators.random_apollonian 96 ~seed:23 in
  let view = Cluster_view.whole g in
  let leaders = Leader_election.run view ~rounds:(Graph.n g) in
  let roots = Array.init (Graph.n g) (fun v -> leaders.leader_of.(v) = v) in
  let r = Bfs_tree.run view ~roots ~rounds:(Graph.n g) in
  checkb "valid" true (Bfs_tree.check view r ~roots);
  check "rounds" 97 r.stats.Congest.Network.rounds;
  check "messages" 564 r.stats.Congest.Network.messages;
  check "total bits" 3948 r.stats.Congest.Network.total_bits

(* ------------------------------------------------------------------ *)
(* Orientation                                                         *)
(* ------------------------------------------------------------------ *)

let test_orientation_planar () =
  (* maximal planar: density < 3, so out-degree <= ceil(2 * 1.5 * 3) = 9 *)
  let g = Generators.random_apollonian 100 ~seed:3 in
  let view = Cluster_view.whole g in
  let r = Orientation.run view ~density:3. in
  checkb "valid" true (Orientation.check view r ~density:3.);
  checkb "finished peeling" true (r.phases > 0)

let test_orientation_tree () =
  let g = Generators.random_tree 64 ~seed:4 in
  let view = Cluster_view.whole g in
  let r = Orientation.run view ~density:1. in
  checkb "valid" true (Orientation.check view r ~density:1.);
  (* trees have density < 1: every vertex out-degree <= 3 *)
  Array.iter (fun d -> checkb "small out-degree" true (d <= 3)) r.out_degree

let test_orientation_clustered () =
  let g = Generators.grid 7 7 in
  let view = decomposed_view g 0.3 in
  let r = Orientation.run view ~density:2. in
  checkb "valid" true (Orientation.check view r ~density:2.);
  (* inter-cluster edges must stay unoriented *)
  Graph.iter_edges g (fun e u v ->
      if view.labels.(u) <> view.labels.(v) then
        check "unoriented" (-1) r.owner.(e))

let test_orientation_counts_cover () =
  let g = Generators.random_maximal_outerplanar 40 ~seed:5 in
  let view = Cluster_view.whole g in
  let r = Orientation.run view ~density:2. in
  let total = Array.fold_left ( + ) 0 r.out_degree in
  check "every intra edge owned once" (Graph.m g) total

(* ------------------------------------------------------------------ *)
(* Walk routing + gather                                               *)
(* ------------------------------------------------------------------ *)

let test_walk_routing_delivers () =
  let g = Generators.complete 12 in
  let view = Cluster_view.whole g in
  let leaders = Leader_election.run view ~rounds:2 in
  let r =
    Walk_routing.run view ~leader_of:leaders.leader_of
      ~tokens_of:(fun _ -> 2)
      ~walk_len:400 ~seed:6 ~max_rounds:3000
  in
  checkb "bookkeeping consistent" true
    (Walk_routing.check view ~leader_of:leaders.leader_of
       ~tokens_of:(fun _ -> 2) r);
  Alcotest.(check (float 0.001)) "all delivered" 1.
    (Walk_routing.delivery_rate view ~tokens_of:(fun _ -> 2) r)

let test_walk_routing_budget_too_small () =
  (* a tiny walk budget on a long path cannot deliver remote tokens *)
  let g = Generators.path 30 in
  let view = Cluster_view.whole g in
  let leaders = Leader_election.run view ~rounds:30 in
  let r =
    Walk_routing.run view ~leader_of:leaders.leader_of
      ~tokens_of:(fun _ -> 1)
      ~walk_len:4 ~seed:7 ~max_rounds:500
  in
  let rate = Walk_routing.delivery_rate view ~tokens_of:(fun _ -> 1) r in
  checkb "cannot deliver everything" true (rate < 1.);
  checkb "bookkeeping still consistent" true
    (Walk_routing.check view ~leader_of:leaders.leader_of
       ~tokens_of:(fun _ -> 1) r)

let test_gather_complete_small () =
  let g = Generators.random_apollonian 24 ~seed:8 in
  let view = Cluster_view.whole g in
  let leaders = Leader_election.run view ~rounds:(diam_bound view) in
  let r =
    Gather.run view ~leader_of:leaders.leader_of ~density:3. ~walk_len:4000
      ~seed:9 ~max_rounds:20000
  in
  Alcotest.(check (float 0.001)) "full delivery" 1. r.delivery;
  checkb "leader knows the topology" true
    (Gather.complete view ~leader_of:leaders.leader_of r.edges_at_leader)

let test_gather_clustered () =
  let g = Generators.grid 6 6 in
  let view = decomposed_view g 0.35 in
  let leaders = Leader_election.run view ~rounds:(diam_bound view) in
  let r =
    Gather.run view ~leader_of:leaders.leader_of ~density:2. ~walk_len:6000
      ~seed:10 ~max_rounds:40000
  in
  checkb "every cluster gathered" true
    (Gather.complete view ~leader_of:leaders.leader_of r.edges_at_leader)

(* ------------------------------------------------------------------ *)
(* LOCAL-model gathering baseline                                      *)
(* ------------------------------------------------------------------ *)

let test_local_gather_whole () =
  let g = Generators.random_apollonian 40 ~seed:31 in
  let view = Cluster_view.whole g in
  let leaders = Leader_election.run view ~rounds:(diam_bound view) in
  let r =
    Local_gather.run view ~leader_of:leaders.leader_of
      ~rounds_budget:((2 * diam_bound view) + 6)
  in
  checkb "complete" true
    (Gather.complete view ~leader_of:leaders.leader_of r.edges_at_leader);
  (* LOCAL gathering is fast but its messages burst the CONGEST budget *)
  checkb "few rounds" true (r.rounds <= (2 * diam_bound view) + 6);
  (match Congest.Network.congest_bandwidth (Graph.n g) with
  | Congest.Network.Congest b ->
      checkb "needs more than CONGEST bandwidth" true (r.max_message_bits > b)
  | Congest.Network.Local -> ())

let test_local_gather_clustered () =
  let g = Generators.blob_chain ~blobs:6 ~blob_size:12 ~seed:32 in
  let d = Spectral.Expander_decomposition.decompose g ~epsilon:0.4 in
  let view = Cluster_view.of_labels g d.labels in
  let leaders = Leader_election.run view ~rounds:(diam_bound view) in
  let r =
    Local_gather.run view ~leader_of:leaders.leader_of
      ~rounds_budget:((2 * diam_bound view) + 6)
  in
  checkb "complete per cluster" true
    (Gather.complete view ~leader_of:leaders.leader_of r.edges_at_leader)

let test_gather_checker_rejects () =
  (* the one checker for both gathers: a complete LOCAL gather passes,
     and each kind of wrong edge set fails *)
  let g = Generators.blob_chain ~blobs:4 ~blob_size:10 ~seed:35 in
  let d = Spectral.Expander_decomposition.decompose g ~epsilon:0.4 in
  let view = Cluster_view.of_labels g d.labels in
  let leader_of = (Leader_election.run view ~rounds:(Graph.n g)).leader_of in
  let r =
    Local_gather.run view ~leader_of ~rounds_budget:((2 * diam_bound view) + 6)
  in
  let ok = Gather.complete view ~leader_of in
  checkb "complete" true (ok r.edges_at_leader);
  match r.edges_at_leader with
  | (l, (((u, v) as e) :: es)) :: (l', es') :: rest ->
      checkb "missing edge" false (ok ((l, es) :: (l', es') :: rest));
      checkb "duplicate edge" false
        (ok ((l, e :: e :: es) :: (l', es') :: rest));
      checkb "reversed edge" false
        (ok ((l, (v, u) :: es) :: (l', es') :: rest));
      checkb "edge at a foreign leader" false
        (ok ((l, es) :: (l', e :: es') :: rest));
      let inter =
        List.find
          (fun (a, b) -> view.labels.(a) <> view.labels.(b))
          (Array.to_list (Graph.edges g))
      in
      checkb "inter-cluster edge" false
        (ok
           (List.map
              (fun (x, xs) ->
                if x = leader_of.(fst inter) then (x, inter :: xs) else (x, xs))
              r.edges_at_leader))
  | _ -> Alcotest.fail "expected two leaders, the first with edges"

let test_local_gather_matches_walk_gather () =
  (* both gathering methods must deliver the same edge sets *)
  let g = Generators.random_apollonian 24 ~seed:33 in
  let view = Cluster_view.whole g in
  let leaders = Leader_election.run view ~rounds:(diam_bound view) in
  let local =
    Local_gather.run view ~leader_of:leaders.leader_of
      ~rounds_budget:((2 * diam_bound view) + 6)
  in
  let walks =
    Gather.run view ~leader_of:leaders.leader_of ~density:3. ~walk_len:4000
      ~seed:34 ~max_rounds:30000
  in
  checkb "walk gather complete" true
    (Gather.complete view ~leader_of:leaders.leader_of walks.edges_at_leader);
  let norm l = List.sort compare (List.map (fun (a, es) -> (a, es)) l) in
  Alcotest.(check bool) "same edge sets" true
    (norm local.edges_at_leader = norm walks.edges_at_leader)

(* ------------------------------------------------------------------ *)
(* Deterministic tree routing (Lemma 2.5 stand-in): a BFS tree from the *)
(* leaders, then Witness_routing ships tokens up each parent chain       *)
(* ------------------------------------------------------------------ *)

(* [tokens] tokens per vertex; token [d] starts at vertex [d / tokens] *)
let tree_route (view : Cluster_view.t) ~leader_of ~tokens =
  let g = view.graph in
  let n = Graph.n g in
  let roots = Array.init n (fun v -> leader_of.(v) = v) in
  let bfs = Bfs_tree.run view ~roots ~rounds:n in
  checkb "shortest-path tree" true (Bfs_tree.check view bfs ~roots);
  let rec chain v acc =
    let p = bfs.parent.(v) in
    if p = v then List.rev (v :: acc) else chain p (v :: acc)
  in
  let plans =
    Array.init (tokens * n) (fun d -> Array.of_list (chain (d / tokens) []))
  in
  let r = Witness_routing.run g ~plans ~max_rounds:(8 * n) in
  checkb "witness check" true (Witness_routing.check ~plans r);
  (bfs, r)

let test_tree_routing_delivers_all () =
  List.iter
    (fun (name, g) ->
      let view = Cluster_view.whole g in
      let leaders = Leader_election.run view ~rounds:(Graph.n g) in
      let _, r = tree_route view ~leader_of:leaders.leader_of ~tokens:2 in
      check (name ^ " undelivered") 0 r.undelivered;
      check (name ^ " held") 0 r.held)
    [
      ("apollonian", Generators.random_apollonian 60 ~seed:90);
      ("path", Generators.path 40);
      ("grid", Generators.grid 7 7);
    ]

let test_tree_routing_deterministic () =
  let g = Generators.random_apollonian 40 ~seed:91 in
  let view = Cluster_view.whole g in
  let leaders = Leader_election.run view ~rounds:(Graph.n g) in
  let run () =
    let bfs, r = tree_route view ~leader_of:leaders.leader_of ~tokens:1 in
    (bfs.stats, r.stats, r.last_round, r.delivered)
  in
  checkb "two runs identical" true (run () = run ())

let test_tree_routing_clustered () =
  let g = Generators.blob_chain ~blobs:5 ~blob_size:12 ~seed:92 in
  let d = Spectral.Expander_decomposition.decompose g ~epsilon:0.4 in
  let view = Cluster_view.of_labels g d.labels in
  let leaders = Leader_election.run view ~rounds:(Graph.n g) in
  let _, r = tree_route view ~leader_of:leaders.leader_of ~tokens:1 in
  check "delivery across clusters" 0 r.undelivered;
  (* each leader received only its own cluster's tokens *)
  List.iter
    (fun (leader, ds) ->
      List.iter
        (fun origin ->
          checkb "right leader" true (leaders.leader_of.(origin) = leader))
        ds)
    r.delivered

(* ------------------------------------------------------------------ *)
(* Diameter check (failure detection)                                  *)
(* ------------------------------------------------------------------ *)

let test_diameter_check_small_diameter () =
  let g = Generators.complete 8 in
  let view = Cluster_view.whole g in
  let r = Diameter_check.run view ~b:2 in
  checkb "no marks on small-diameter cluster" true
    (Array.for_all not r.marked);
  checkb "check" true (Diameter_check.check view r ~b:2)

let test_diameter_check_large_diameter () =
  let g = Generators.path 30 in
  let view = Cluster_view.whole g in
  let r = Diameter_check.run view ~b:3 in
  checkb "all marked on long path" true (Array.for_all Fun.id r.marked);
  checkb "check" true (Diameter_check.check view r ~b:3)

let test_diameter_check_mixed_clusters () =
  (* two clusters: a clique (diameter 1) and a long path *)
  let g = Graph_fixtures.disjoint_union (Generators.complete 6) (Generators.path 25) in
  let labels = Array.init (Graph.n g) (fun v -> if v < 6 then 0 else 1) in
  let view = Cluster_view.of_labels g labels in
  let r = Diameter_check.run view ~b:2 in
  checkb "clique unmarked" true (not r.marked.(0));
  checkb "path marked" true r.marked.(10);
  checkb "check" true (Diameter_check.check view r ~b:2)

(* ------------------------------------------------------------------ *)
(* Star elimination (Section 3.2 token protocol)                       *)
(* ------------------------------------------------------------------ *)

let test_star_elimination_star () =
  let g = Graph_fixtures.star 6 in
  let view = Cluster_view.whole g in
  let r = Star_elimination.run view ~max_iterations:3 in
  checkb "valid" true (Star_elimination.check view r);
  (* keep center + one pendant *)
  check "five removed" 5
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 r.removed)

let test_star_elimination_double_star () =
  let g = Graph_fixtures.double_star 5 in
  let view = Cluster_view.whole g in
  let r = Star_elimination.run view ~max_iterations:3 in
  checkb "valid" true (Star_elimination.check view r);
  check "three spokes removed" 3
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 r.removed)

let test_star_elimination_pinned () =
  (* regression: bounce lists are sorted before sending, so elimination
     does not depend on the spoke table's hash order *)
  let g = Graph_fixtures.double_star 5 in
  let view = Cluster_view.whole g in
  let r = Star_elimination.run view ~max_iterations:5 in
  Alcotest.(check (array bool))
    "removed"
    [| false; false; false; false; true; true; true |]
    r.removed

let test_star_elimination_matches_centralized () =
  for seed = 0 to 5 do
    let g =
      Generators.attach_double_stars
        (Generators.attach_stars
           (Generators.random_planar 30 0.5 ~seed)
           ~stars:4 ~leaves:4 ~seed)
        ~hubs:2 ~spokes:5 ~seed
    in
    let view = Cluster_view.whole g in
    let r = Star_elimination.run view ~max_iterations:(Graph.n g) in
    checkb "protocol output clean" true (Star_elimination.check view r);
    let centralized = Matching.Preprocess.eliminate_fixpoint g in
    let expected = Array.make (Graph.n g) false in
    List.iter (fun v -> expected.(v) <- true) centralized.removed;
    Alcotest.(check (array bool))
      (Printf.sprintf "matches centralized (seed %d)" seed)
      expected r.removed
  done

let test_star_elimination_clean_input () =
  (* a cycle has nothing to eliminate *)
  let g = Generators.cycle 10 in
  let view = Cluster_view.whole g in
  let r = Star_elimination.run view ~max_iterations:2 in
  checkb "nothing removed" true (Array.for_all not r.removed)

(* ------------------------------------------------------------------ *)
(* Distributed expander decomposition                                  *)
(* ------------------------------------------------------------------ *)

let test_distributed_decomposition_quality () =
  List.iter
    (fun (name, g, eps) ->
      let d = Distributed_decomposition.decompose g ~epsilon:eps in
      let inter_ok, worst = Distributed_decomposition.verify g d in
      checkb (name ^ " labels valid") true
        (Array.for_all (fun l -> l >= 0 && l < d.k) d.labels);
      checkb (name ^ " within epsilon budget") true inter_ok;
      checkb
        (Printf.sprintf "%s conductance %.4f >= tau %.4f" name worst d.tau)
        true
        (worst >= d.tau -. 1e-9);
      checkb (name ^ " simulated rounds positive") true (d.total_rounds > 0))
    [
      ("path", Generators.path 48, 0.3);
      ("blob-chain", Generators.blob_chain ~blobs:6 ~blob_size:10 ~seed:51, 0.4);
      ("barbell", Generators.barbell 8 2, 0.25);
      ("grid", Generators.grid 8 8, 0.3);
    ]

let test_distributed_decomposition_matches_oracle_clusters () =
  (* the same structural splits as the centralized oracle on bridge-heavy
     inputs: clusters must separate the blobs *)
  let g = Generators.blob_chain ~blobs:5 ~blob_size:10 ~seed:52 in
  let d = Distributed_decomposition.decompose g ~epsilon:0.4 in
  check "five blob clusters" 5 d.k;
  (* every blob stays whole: vertices of the same blob share a label *)
  for b = 0 to 4 do
    let l = d.labels.(b * 10) in
    for v = (b * 10) + 1 to (b * 10) + 9 do
      check "blob intact" l d.labels.(v)
    done
  done

let test_distributed_decomposition_bandwidth () =
  (* every message fits the declared CONGEST budget of 12 words *)
  let g = Generators.random_apollonian 64 ~seed:53 in
  let d = Distributed_decomposition.decompose g ~epsilon:0.3 in
  let budget = 12 * Congest.Bits.id_bits (Graph.n g) in
  checkb
    (Printf.sprintf "max bits %d <= budget %d" d.max_edge_bits budget)
    true
    (d.max_edge_bits <= budget)

let test_distributed_decomposition_expander_whole () =
  let g = Generators.complete 16 in
  let d = Distributed_decomposition.decompose g ~epsilon:0.3 in
  check "expander stays whole" 1 d.k

let test_distributed_decomposition_disconnected () =
  let g = Graph_fixtures.disjoint_union (Generators.cycle 6) (Generators.cycle 6) in
  let d = Distributed_decomposition.decompose g ~epsilon:0.5 in
  checkb "components separated" true (d.k >= 2);
  checkb "no inter edges across components" true
    (List.for_all
       (fun e ->
         let u, v = Graph.endpoints g e in
         (u < 6) = (v < 6))
       d.inter_edges)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let arb_connected =
  QCheck.make
    ~print:(fun (n, seed, extra) ->
      Printf.sprintf "n=%d seed=%d extra=%d" n seed extra)
    QCheck.Gen.(
      map3
        (fun n seed extra -> (n, seed, extra))
        (int_range 4 36) (int_range 0 1000) (int_range 0 15))

let build (n, seed, extra) =
  Generators.add_random_edges (Generators.random_tree n ~seed) extra ~seed

let prop_leader_election =
  QCheck.Test.make ~name:"leader election valid on random graphs" ~count:40
    arb_connected (fun input ->
      let g = build input in
      let view = Cluster_view.whole g in
      let r = Leader_election.run view ~rounds:(Graph.n g) in
      Leader_election.check view r)

let prop_orientation =
  QCheck.Test.make ~name:"orientation covers intra edges with bounded degree"
    ~count:40 arb_connected (fun input ->
      let g = build input in
      let view = Cluster_view.whole g in
      let density =
        max 1. (float_of_int (Graph.m g) /. float_of_int (Graph.n g))
      in
      let r = Orientation.run view ~density in
      Orientation.check view r ~density)

let prop_bfs =
  QCheck.Test.make ~name:"distributed BFS matches centralized distances"
    ~count:40 arb_connected (fun input ->
      let g = build input in
      let view = Cluster_view.whole g in
      let roots = Array.init (Graph.n g) (fun v -> v = 0) in
      let r = Bfs_tree.run view ~roots ~rounds:(Graph.n g) in
      Bfs_tree.check view r ~roots)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_leader_election; prop_orientation;
      prop_bfs;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "distr"
    [
      ( "leader_election",
        [
          tc "star hub" test_leader_whole_star;
          tc "tie break by id" test_leader_tie_break;
          tc "clustered" test_leader_clustered;
          tc "insufficient rounds detected" test_leader_insufficient_rounds_detected;
        ] );
      ( "bfs_broadcast",
        [
          tc "bfs tree on grid" test_bfs_tree_whole;
          tc "bfs from cluster leaders" test_bfs_tree_clustered;
          tc "leader flood stats pinned" test_bfs_flood_stats_pinned;
        ] );
      ( "orientation",
        [
          tc "planar" test_orientation_planar;
          tc "tree" test_orientation_tree;
          tc "clustered" test_orientation_clustered;
          tc "edges covered once" test_orientation_counts_cover;
        ] );
      ( "routing_gather",
        [
          tc "walk routing delivers" test_walk_routing_delivers;
          tc "walk budget too small" test_walk_routing_budget_too_small;
          tc "gather whole graph" test_gather_complete_small;
          tc "gather per cluster" test_gather_clustered;
        ] );
      ( "tree_routing",
        [
          tc "delivers everything" test_tree_routing_delivers_all;
          tc "deterministic" test_tree_routing_deterministic;
          tc "clustered" test_tree_routing_clustered;
        ] );
      ( "diameter_check",
        [
          tc "small diameter unmarked" test_diameter_check_small_diameter;
          tc "large diameter marked" test_diameter_check_large_diameter;
          tc "mixed clusters" test_diameter_check_mixed_clusters;
        ] );
      ( "distributed_decomposition",
        [
          tc "quality across families" test_distributed_decomposition_quality;
          tc "matches oracle on blob chains" test_distributed_decomposition_matches_oracle_clusters;
          tc "bandwidth respected" test_distributed_decomposition_bandwidth;
          tc "expander stays whole" test_distributed_decomposition_expander_whole;
          tc "disconnected input" test_distributed_decomposition_disconnected;
        ] );
      ( "local_gather",
        [
          tc "whole graph" test_local_gather_whole;
          tc "clustered" test_local_gather_clustered;
          tc "agrees with walk gathering" test_local_gather_matches_walk_gather;
          tc "checker rejects wrong edge sets" test_gather_checker_rejects;
        ] );
      ( "star_elimination",
        [
          tc "2-star" test_star_elimination_star;
          tc "3-double-star" test_star_elimination_double_star;
          tc "pinned elimination" test_star_elimination_pinned;
          tc "matches centralized fixpoint" test_star_elimination_matches_centralized;
          tc "clean input untouched" test_star_elimination_clean_input;
        ] );
      ("properties", qcheck_cases);
    ]
