(* Command-line driver: run the framework's decomposition and applications
   on generated networks from the shell.

     dune exec bin/expander_cli.exe -- decompose --family grid -n 256
     dune exec bin/expander_cli.exe -- mis --family apollonian -n 200 --eps 0.2
     dune exec bin/expander_cli.exe -- mcm --family planar -n 300
     dune exec bin/expander_cli.exe -- mwm --family grid -n 144 --max-w 50
     dune exec bin/expander_cli.exe -- correlation --family grid -n 100
     dune exec bin/expander_cli.exe -- test-property --property planar --far
     dune exec bin/expander_cli.exe -- ldd --family apollonian --eps 0.1 *)

open Sparse_graph
open Cmdliner

(* every graph family the subcommands accept, by [--family] name *)
let families =
  [
    ( "grid",
      fun n _ ->
        let side = max 2 (int_of_float (sqrt (float_of_int n))) in
        Generators.grid side side );
    ("apollonian", fun n seed -> Generators.random_apollonian (max 3 n) ~seed);
    ("planar", fun n seed -> Generators.random_planar (max 3 n) 0.7 ~seed);
    ("tree", fun n seed -> Generators.random_tree (max 1 n) ~seed);
    ( "outerplanar",
      fun n seed -> Generators.random_maximal_outerplanar (max 3 n) ~seed );
    ("ktree", fun n seed -> Generators.random_k_tree (max 4 n) 3 ~seed);
    ( "hypercube",
      fun n _ ->
        let d = max 1 (int_of_float (log (float_of_int (max 2 n)) /. log 2.)) in
        Generators.hypercube d );
  ]

let family_names = List.map fst families

(* [family] has passed [family_arg]'s check *)
let make_graph family n seed = (List.assoc family families) n seed

(* a name outside [names] exits 1 with one line, like a bad [--eps] *)
let one_of flag names s =
  if List.mem s names then s
  else begin
    Printf.eprintf "expander_cli: --%s expects one of %s, got %S\n" flag
      (String.concat ", " names) s;
    exit 1
  end

let family_arg =
  Term.(
    const (one_of "family" family_names)
    $ Arg.(
        value & opt string "apollonian"
        & info [ "family"; "f" ]
            ~doc:("Graph family: " ^ String.concat ", " family_names ^ ".")))

(* a size below 1, or text, exits 1 with one line instead of being
   raised to the family's smallest graph *)
let n_arg =
  let check s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ ->
        Printf.eprintf "expander_cli: -n expects a positive integer, got %S\n"
          s;
        exit 1
  in
  Term.(
    const check
    $ Arg.(
        value & opt string "200"
        & info [ "n" ] ~docv:"N"
            ~doc:"Number of vertices (approx), $(docv) >= 1."))

(* every subcommand takes epsilon in (0, 1); anything else, nan and text
   included, exits 1 with one line instead of reaching a library check *)
let eps_arg =
  let check s =
    match float_of_string_opt s with
    | Some e when e > 0. && e < 1. -> e
    | _ ->
        Printf.eprintf "expander_cli: --eps expects a number in (0, 1), got %S\n" s;
        exit 1
  in
  Term.(
    const check
    $ Arg.(
        value & opt string "0.25"
        & info [ "eps"; "e" ] ~docv:"EPS"
            ~doc:"Epsilon parameter, 0 < $(docv) < 1."))

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")

let simulate_arg =
  Arg.(
    value & flag
    & info [ "simulate" ]
        ~doc:
          "Run the communication phases on the CONGEST simulator (slower; \
           default charges the construction and skips simulation).")

let mode_of simulate = if simulate then Core.Pipeline.Simulated else Core.Pipeline.Charged

let report_pipeline (p : Core.Pipeline.t) =
  let r = p.report in
  Printf.printf
    "decomposition: k=%d clusters, inter-cluster %d edges (%.2f%%), phi=%.3e\n"
    r.k r.inter_edges (100. *. r.inter_fraction) r.phi;
  Printf.printf "charged construction rounds: %d\n"
    r.charged_construction_rounds;
  if r.simulated_rounds > 0 then
    Printf.printf "simulated communication rounds: %d\n" r.simulated_rounds

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~doc:"Write the generated graph as an edge list to FILE.")

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ]
        ~doc:"Write a GraphViz rendering (clusters colored) to FILE.")

let distributed_arg =
  Arg.(
    value & flag
    & info [ "distributed" ]
        ~doc:
          "Use the fully distributed construction            (Distr.Distributed_decomposition) instead of the centralized            oracle.")

let engine_arg =
  Arg.(
    value
    & opt (enum [ ("spectral", Core.Pipeline.Spectral_engine);
                  ("cutmatching", Core.Pipeline.Cut_matching_engine) ])
        Core.Pipeline.Spectral_engine
    & info [ "engine" ]
        ~doc:
          "Decomposition engine: $(b,spectral) (Fiedler bipartitioning,            default) or $(b,cutmatching) (flow-based cut-matching game).")

let decompose_cmd =
  let run family n eps seed save dot distributed engine =
    let g = make_graph family n seed in
    Printf.printf "graph: %s n=%d m=%d\n" family (Graph.n g) (Graph.m g);
    let labels, k, inter, tau =
      if distributed then begin
        let d = Distr.Distributed_decomposition.decompose g ~epsilon:eps in
        Printf.printf
          "distributed construction: %d levels, %d simulated rounds, max            %d bits/edge/round\n"
          d.levels d.total_rounds d.max_edge_bits;
        (d.labels, d.k, List.length d.inter_edges, d.tau)
      end
      else begin
        let d =
          match engine with
          | Core.Pipeline.Spectral_engine ->
              Spectral.Expander_decomposition.decompose g ~epsilon:eps
          | Core.Pipeline.Cut_matching_engine ->
              let d, st = Flow.Decomp_engine.decompose g ~epsilon:eps in
              Printf.printf
                "cut-matching: %d games, %d rounds, %d flow calls, %d heuristic cuts\n"
                st.Flow.Decomp_engine.games st.Flow.Decomp_engine.game_rounds
                st.Flow.Decomp_engine.flow_calls
                st.Flow.Decomp_engine.heuristic_cuts;
              d
        in
        let _, worst =
          Spectral.Expander_decomposition.verify ~power_iters:120 ~seed:0 g d
        in
        Printf.printf "measured min cluster conductance: %.4f\n" worst;
        (d.labels, d.k, List.length d.inter_edges, d.tau)
      end
    in
    Printf.printf "clusters: %d, inter-cluster edges: %d / %d (%.2f%%)\n" k
      inter (Graph.m g)
      (100. *. float_of_int inter /. float_of_int (max 1 (Graph.m g)));
    Printf.printf "conductance threshold tau = %.3e\n" tau;
    Option.iter
      (fun path ->
        Graph_io.save g ~path;
        Printf.printf "edge list written to %s\n" path)
      save;
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Graph_io.to_dot ~labels g);
        close_out oc;
        Printf.printf "dot rendering written to %s\n" path)
      dot
  in
  Cmd.v (Cmd.info "decompose" ~doc:"Run the (eps, phi) expander decomposition.")
    Term.(
      const run $ family_arg $ n_arg $ eps_arg $ seed_arg $ save_arg $ dot_arg
      $ distributed_arg $ engine_arg)

let mis_cmd =
  let run family n eps seed simulate =
    let g = make_graph family n seed in
    Printf.printf "graph: %s n=%d m=%d\n" family (Graph.n g) (Graph.m g);
    let r = Core.App_mis.run ~mode:(mode_of simulate) g ~epsilon:eps ~seed in
    report_pipeline r.pipeline;
    Printf.printf "independent set: %d vertices (|Z| = %d conflicts removed)\n"
      r.size r.conflicts_removed;
    if Graph.n g <= 300 then
      let opt = Optimize.Mis.exact_size g in
      Printf.printf "exact optimum: %d, ratio %.3f (target %.3f)\n" opt
        (Core.App_mis.ratio r ~opt)
        (1. -. eps)
  in
  Cmd.v
    (Cmd.info "mis" ~doc:"(1-eps)-approximate maximum independent set (Thm 1.2).")
    Term.(const run $ family_arg $ n_arg $ eps_arg $ seed_arg $ simulate_arg)

let mcm_cmd =
  let run family n eps seed simulate =
    let g = make_graph family n seed in
    Printf.printf "graph: %s n=%d m=%d\n" family (Graph.n g) (Graph.m g);
    let r = Core.App_matching.mcm_planar ~mode:(mode_of simulate) g ~epsilon:eps ~seed in
    (match r.pipeline with Some p -> report_pipeline p | None -> ());
    let opt = Matching.Blossom.size (Matching.Blossom.max_cardinality_matching g) in
    Printf.printf "matching: %d edges; optimum %d; ratio %.3f (target %.3f)\n"
      r.size opt
      (if opt = 0 then 1. else float_of_int r.size /. float_of_int opt)
      (1. -. eps)
  in
  Cmd.v
    (Cmd.info "mcm" ~doc:"(1-eps)-approximate planar maximum matching (Thm 3.2).")
    Term.(const run $ family_arg $ n_arg $ eps_arg $ seed_arg $ simulate_arg)

(* a weight bound below 1, or text, exits 1 with one line instead of
   reaching [Weights.random]'s or [Random.State.int]'s check *)
let max_w_arg =
  let check s =
    match int_of_string_opt s with
    | Some w when w >= 1 -> w
    | _ ->
        Printf.eprintf "expander_cli: --max-w expects a positive integer, got %S\n"
          s;
        exit 1
  in
  Term.(
    const check
    $ Arg.(
        value & opt string "64"
        & info [ "max-w" ] ~docv:"W" ~doc:"Maximum weight, $(docv) >= 1."))

let mwm_cmd =
  let run family n eps seed simulate max_w =
    let g = make_graph family n seed in
    let w = Weights.random g ~max_w ~seed in
    Printf.printf "graph: %s n=%d m=%d W=%d\n" family (Graph.n g) (Graph.m g) max_w;
    let r = Core.App_matching.mwm ~mode:(mode_of simulate) g w ~epsilon:eps ~seed in
    (match r.pipeline with Some p -> report_pipeline p | None -> ());
    let greedy = Matching.Approx.weight g w (Matching.Approx.greedy g w) in
    Printf.printf "framework MWM weight: %d (greedy baseline %d; OPT <= %d)\n"
      r.weight greedy (2 * greedy)
  in
  Cmd.v
    (Cmd.info "mwm" ~doc:"(1-eps)-approximate maximum weight matching (Thm 1.1).")
    Term.(
      const run $ family_arg $ n_arg $ eps_arg $ seed_arg $ simulate_arg
      $ max_w_arg)

let correlation_cmd =
  let run family n eps seed simulate =
    let g = make_graph family n seed in
    let communities = Array.init (Graph.n g) (fun v -> v mod 3) in
    let labels = Generators.planted_sign_labels g communities ~noise:0.1 ~seed in
    Printf.printf "graph: %s n=%d m=%d (planted labels, 10%% noise)\n" family
      (Graph.n g) (Graph.m g);
    let r =
      Core.App_correlation.run ~mode:(mode_of simulate) g ~labels ~epsilon:eps
        ~seed
    in
    report_pipeline r.pipeline;
    Printf.printf "agreement score: %d / %d edges (trivial bound %d)\n" r.score
      (Graph.m g)
      (Core.App_correlation.trivial_bound g)
  in
  Cmd.v
    (Cmd.info "correlation"
       ~doc:"(1-eps)-approximate correlation clustering (Thm 1.3).")
    Term.(const run $ family_arg $ n_arg $ eps_arg $ seed_arg $ simulate_arg)

let property_arg =
  let props = Minorfree.Properties.all in
  let names = List.map (fun (p : Minorfree.Properties.t) -> p.name) props in
  Term.(
    const (fun s ->
        let s = one_of "property" names s in
        List.find (fun (p : Minorfree.Properties.t) -> p.name = s) props)
    $ Arg.(
        value & opt string "planar"
        & info [ "property"; "p" ]
            ~doc:("Property: " ^ String.concat ", " names ^ ".")))

let far_arg =
  Arg.(value & flag & info [ "far" ] ~doc:"Corrupt the input to be eps-far.")

let test_property_cmd =
  let run family n eps seed (prop : Minorfree.Properties.t) far =
    let g = make_graph family n seed in
    let g =
      if far then
        Generators.plant_k5s g
          (min (Graph.n g / 5) (1 + (Graph.m g / 8)))
          ~seed
      else g
    in
    Printf.printf "graph: %s n=%d m=%d (%s)\n" family (Graph.n g) (Graph.m g)
      (if far then "corrupted" else "as generated");
    let v = Core.App_property.run ~mode:Core.Pipeline.Charged g prop ~epsilon:eps ~seed in
    Printf.printf "property %S: %s\n" prop.name
      (if v.accepted then "ACCEPT (all vertices)"
       else
         Printf.sprintf "REJECT (%d rejecting clusters)"
           (List.length v.rejecting_clusters))
  in
  Cmd.v
    (Cmd.info "test-property"
       ~doc:"Distributed property testing for minor-closed properties (Thm 1.4).")
    Term.(
      const run $ family_arg $ n_arg $ eps_arg $ seed_arg $ property_arg
      $ far_arg)

let dominating_cmd =
  let run family n eps seed simulate =
    let g = make_graph family n seed in
    Printf.printf "graph: %s n=%d m=%d\n" family (Graph.n g) (Graph.m g);
    let r =
      Core.App_covering.dominating_set ~mode:(mode_of simulate) g ~epsilon:eps
        ~seed
    in
    report_pipeline r.pipeline;
    Printf.printf "dominating set: %d vertices (valid: %b)\n" r.size
      (Optimize.Dominating.is_dominating g r.solution);
    if Graph.n g <= 100 then
      Printf.printf "exact optimum: %d\n" (Optimize.Dominating.exact_size g)
  in
  Cmd.v
    (Cmd.info "dominating"
       ~doc:"Minimum dominating set through the framework (extension).")
    Term.(const run $ family_arg $ n_arg $ eps_arg $ seed_arg $ simulate_arg)

let vertex_cover_cmd =
  let run family n eps seed simulate =
    let g = make_graph family n seed in
    Printf.printf "graph: %s n=%d m=%d\n" family (Graph.n g) (Graph.m g);
    let r =
      Core.App_covering.vertex_cover ~mode:(mode_of simulate) g ~epsilon:eps
        ~seed
    in
    report_pipeline r.pipeline;
    Printf.printf "vertex cover: %d vertices (valid: %b)\n" r.size
      (Optimize.Vertex_cover.is_cover g r.solution);
    if Graph.n g <= 300 then
      Printf.printf "exact optimum: %d\n" (Optimize.Vertex_cover.exact_size g)
  in
  Cmd.v
    (Cmd.info "vertex-cover"
       ~doc:"Minimum vertex cover through the framework (extension).")
    Term.(const run $ family_arg $ n_arg $ eps_arg $ seed_arg $ simulate_arg)

let weighted_mis_cmd =
  let run family n eps seed simulate max_w =
    let g = make_graph family n seed in
    let st = Random.State.make [| seed; 31337 |] in
    let weights = Array.init (Graph.n g) (fun _ -> 1 + Random.State.int st max_w) in
    Printf.printf "graph: %s n=%d m=%d, vertex weights in [1, %d]\n" family
      (Graph.n g) (Graph.m g) max_w;
    let r =
      Core.App_mis.run_weighted ~mode:(mode_of simulate) g ~weights
        ~epsilon:eps ~seed
    in
    report_pipeline r.w_pipeline;
    Printf.printf "weighted independent set: total weight %d (%d vertices)\n"
      r.total_weight
      (List.length r.w_independent_set);
    if Graph.n g <= 120 then
      Printf.printf "exact optimum: %d\n"
        (Optimize.Mis.weight_of weights (Optimize.Mis.exact_weighted g weights))
  in
  Cmd.v
    (Cmd.info "weighted-mis"
       ~doc:"Weighted maximum independent set through the framework (extension).")
    Term.(
      const run $ family_arg $ n_arg $ eps_arg $ seed_arg $ simulate_arg
      $ max_w_arg)

let ldd_cmd =
  let run family n eps seed simulate =
    let g = make_graph family n seed in
    Printf.printf "graph: %s n=%d m=%d\n" family (Graph.n g) (Graph.m g);
    let r = Core.App_ldd.run ~mode:(mode_of simulate) g ~epsilon:eps ~seed in
    report_pipeline r.pipeline;
    Printf.printf
      "low-diameter decomposition: %d clusters, max diameter %d, cut %.2f%% \
       (budget %.2f%%)\n"
      r.partition.k r.max_diameter
      (100. *. r.cut_fraction)
      (100. *. eps)
  in
  Cmd.v
    (Cmd.info "ldd" ~doc:"Low-diameter decomposition with D = O(1/eps) (Thm 1.5).")
    Term.(const run $ family_arg $ n_arg $ eps_arg $ seed_arg $ simulate_arg)

let () =
  let doc =
    "Expander-decomposition framework for CONGEST algorithms on sparse \
     networks (Chang & Su, PODC 2022)."
  in
  let info = Cmd.info "expander-congest" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            decompose_cmd; mis_cmd; mcm_cmd; mwm_cmd; correlation_cmd;
            test_property_cmd; ldd_cmd; dominating_cmd; vertex_cover_cmd;
            weighted_mis_cmd;
          ]))
