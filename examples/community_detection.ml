(* Correlation clustering for community detection (Theorem 1.3).

   Edges of a collaboration network are labelled positive ("these two agree",
   e.g. same-community interactions) or negative (conflicting interactions,
   e.g. spam reports). Agreement-maximization correlation clustering
   recovers the communities; the paper's framework achieves (1 - eps) of
   the optimum on H-minor-free networks.

   Run with: dune exec examples/community_detection.exe *)

open Sparse_graph

let () =
  let seed = 11 in
  let g = Generators.grid 12 12 in
  (* four planted communities in quadrants, with 5% label noise *)
  let communities =
    Array.init (Graph.n g) (fun v ->
        let r = v / 12 and c = v mod 12 in
        (2 * (r / 6)) + (c / 6))
  in
  let labels = Generators.planted_sign_labels g communities ~noise:0.05 ~seed in
  Printf.printf "collaboration network: 12x12 grid, 4 planted communities, 5%% noise\n";
  Printf.printf "edges: %d (%d positive, %d negative)\n" (Graph.m g)
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 labels)
    (Array.fold_left (fun a b -> if b then a else a + 1) 0 labels);

  let r = Core.App_correlation.run ~mode:Core.Pipeline.Charged g ~labels
      ~epsilon:0.2 ~seed
  in
  Printf.printf "framework clustering: score %d / %d edges (%.1f%% agreement)\n"
    r.score (Graph.m g)
    (100. *. float_of_int r.score /. float_of_int (Graph.m g));

  (* reference points *)
  let planted_score = Optimize.Correlation.score g labels communities in
  let trivial =
    Optimize.Correlation.score g labels (Optimize.Correlation.trivial g labels)
  in
  Printf.printf "planted ground truth score:  %d\n" planted_score;
  Printf.printf "trivial clustering bound:    %d (gamma >= m/2 = %d)\n" trivial
    (Graph.m g / 2);
  Printf.printf "clusters used: %d\n"
    (List.length (List.sort_uniq Int.compare (Array.to_list r.clustering)))
