(* A tour of the CONGEST substrate (Section 2.2 machinery).

   Runs each distributed building block of the framework on its own and
   prints the measured round/bandwidth statistics: leader election by
   maximum degree, Barenboim-Elkin orientation, Lemma 2.4 random-walk
   routing, topology gathering, and the Section 2.3 diameter check.

   Run with: dune exec examples/congest_simulation.exe *)

open Sparse_graph
open Distr

let pp_stats label (s : Congest.Network.stats) =
  Printf.printf "  %-22s rounds=%-5d messages=%-7d max-edge-bits=%d\n" label
    s.rounds s.messages s.max_edge_bits

let () =
  let g = Generators.random_apollonian 48 ~seed:21 in
  Printf.printf "network: planar triangulation, n=%d m=%d, CONGEST bandwidth %s bits/edge/round\n"
    (Graph.n g) (Graph.m g)
    (match Congest.Network.congest_bandwidth (Graph.n g) with
    | Congest.Network.Congest b -> string_of_int b
    | Congest.Network.Local -> "unbounded");

  (* cluster the graph first, as the framework does *)
  let d = Spectral.Expander_decomposition.decompose g ~epsilon:0.3 in
  let view = Cluster_view.of_labels g d.labels in
  Printf.printf "expander decomposition: %d clusters, %d inter-cluster edges\n\n"
    d.k (List.length d.inter_edges);

  print_endline "phase 1: leader election (max intra-cluster degree)";
  let election = Leader_election.run view ~rounds:(Graph.n g) in
  pp_stats "election" election.stats;
  Printf.printf "  election valid: %b\n\n" (Leader_election.check view election);

  print_endline "phase 2: low-out-degree orientation (Barenboim-Elkin)";
  let orientation = Orientation.run view ~density:3. () in
  pp_stats "orientation" orientation.stats;
  Printf.printf "  peeling phases: %d, max out-degree: %d\n\n"
    orientation.phases
    (Array.fold_left max 0 orientation.out_degree);

  print_endline "phase 3: topology gathering by lazy random walks (Lemma 2.4)";
  let gather =
    Gather.run view ~leader_of:election.leader_of ~density:3. ~walk_len:4000
      ~seed:2 ~max_rounds:40000
  in
  Printf.printf "  %-22s rounds=%-5d messages=%-7d max-edge-bits=%d\n"
    "routing" gather.routing_stats.last_traffic_round
    gather.routing_stats.messages gather.routing_stats.max_edge_bits;
  Printf.printf "  tokens delivered: %.1f%%, every leader knows its cluster: %b\n\n"
    (100. *. gather.delivery)
    (Gather.complete view ~leader_of:election.leader_of gather);

  print_endline "phase 4: failure detection (Section 2.3 diameter check)";
  let check = Diameter_check.run view ~b:12 in
  pp_stats "diameter check" check.stats;
  Printf.printf "  marked vertices: %d (0 expected on a successful clustering)\n"
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 check.marked)
