(* Quickstart: the Theorem 2.6 framework end to end on a planar network.

   Build a random planar graph, run the simulated pipeline (expander
   decomposition -> leader election -> topology gathering by random walks ->
   local solve), and compute a (1 - eps)-approximate maximum independent
   set (Theorem 1.2).

   Run with: dune exec examples/quickstart.exe *)

open Sparse_graph

let () =
  let n = 60 in
  let epsilon = 0.3 in
  let g = Generators.random_apollonian n ~seed:42 in
  Printf.printf "network: random planar triangulation, n=%d m=%d\n" (Graph.n g)
    (Graph.m g);

  (* the full framework, with every communication phase simulated in the
     CONGEST model (messages capped at O(log n) bits per edge per round) *)
  let result = Core.App_mis.run ~mode:Core.Pipeline.Simulated g ~epsilon ~seed:1 in
  let report = result.pipeline.report in
  Printf.printf "expander decomposition: k=%d clusters, phi=%.2e, %d/%d (%.1f%%) inter-cluster edges\n"
    report.k report.phi report.inter_edges (Graph.m g)
    (100. *. report.inter_fraction);
  Printf.printf "CONGEST rounds (simulated election + orientation + routing): %d\n"
    report.simulated_rounds;
  Printf.printf "CONGEST rounds (charged for decomposition construction): %d\n"
    report.charged_construction_rounds;

  let opt = Optimize.Mis.exact_size g in
  Printf.printf "independent set found: %d (optimum %d, ratio %.3f, target >= %.3f)\n"
    result.size opt
    (Core.App_mis.ratio result ~opt)
    (1. -. epsilon);
  Printf.printf "conflicts removed across inter-cluster edges (|Z|): %d\n"
    result.conflicts_removed
