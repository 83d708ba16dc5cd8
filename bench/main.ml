(* Benchmark harness: regenerates every experiment table (E1-E9, see
   DESIGN.md section 3) and runs the Bechamel timing micro-benchmarks.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- e6           # one experiment
     dune exec bench/main.exe -- timing       # only the timing benches
     dune exec bench/main.exe -- e8 --jobs 4  # grid points on 4 domains
     dune exec bench/main.exe -- e8 --profile BENCH_profile.json

   --jobs N (or the EXPANDER_JOBS environment variable) sets the worker
   pool for the grid points inside each experiment; the default is
   Domain.recommended_domain_count and --jobs 1 forces the sequential
   path. Tables are byte-identical at every jobs value. --timings PATH
   writes each experiment's wall-clock to PATH; without it no timings
   file is written.

   The fault-sweep experiment takes --fault-seed N (sweep PRNG seed,
   default 20220711) and --drop-rate F (restrict the sweep to one drop
   rate instead of the default ladder 0 / 0.05 / 0.1 / 0.2).

   Observability (lib/obs) is enabled for the table experiments: each
   runs inside an "exp.<name>" span, so a timings file also carries
   per-phase wall-clock taken from the span tree. --profile PATH writes
   the full profile (schema "expander-obs-profile": deterministic span
   aggregate + volatile timings); --trace PATH writes a Chrome
   trace_event file loadable in Perfetto / chrome://tracing. The
   "timing" micro-benchmarks run with observability off so Bechamel
   measures the uninstrumented hot paths. *)

open Sparse_graph

(* ------------------------------------------------------------------ *)
(* Bechamel timing benches: one Test.make per experiment workload       *)
(* ------------------------------------------------------------------ *)

let timing () =
  let open Bechamel in
  print_endline "\n### Timing micro-benchmarks (Bechamel, ns per run)";
  let grid = Generators.grid 32 32 in
  let apo = Generators.random_apollonian 256 ~seed:1 in
  let apo_small = Generators.random_apollonian 64 ~seed:2 in
  let w = Weights.random apo ~max_w:64 ~seed:3 in
  let labels = Generators.random_sign_labels apo_small ~frac_pos:0.5 ~seed:4 in
  let tree = Generators.random_tree 1024 ~seed:5 in
  let tests =
    [
      (* E8 workload: the expander decomposition itself *)
      Test.make ~name:"e8: expander decomposition (grid 1024)"
        (Staged.stage (fun () ->
             ignore
               (Spectral.Expander_decomposition.decompose grid ~epsilon:0.5)));
      (* E1 workload: exact MIS local solve *)
      Test.make ~name:"e1: exact MIS (apollonian 64)"
        (Staged.stage (fun () -> ignore (Optimize.Mis.exact apo_small)));
      (* E2 workload: blossom matching local solve *)
      Test.make ~name:"e2: blossom MCM (apollonian 256)"
        (Staged.stage (fun () ->
             ignore (Matching.Blossom.max_cardinality_matching apo)));
      (* E3 workload: scaling MWM *)
      Test.make ~name:"e3: scaling MWM (apollonian 256)"
        (Staged.stage (fun () -> ignore (Matching.Scaling.run apo w)));
      (* E4 workload: correlation local solver *)
      Test.make ~name:"e4: correlation solve (apollonian 64)"
        (Staged.stage (fun () ->
             ignore (Optimize.Correlation.solve apo_small labels ~seed:5)));
      (* E5 workload: planarity test *)
      Test.make ~name:"e5: planarity test (apollonian 256)"
        (Staged.stage (fun () -> ignore (Minorfree.Planarity.is_planar apo)));
      (* E6 workload: KPR chop *)
      Test.make ~name:"e6: KPR chop (grid 1024)"
        (Staged.stage (fun () ->
             ignore (Decomp.Kpr.chop grid ~width:8 ~levels:2 ~seed:6)));
      (* E7 workload: balanced edge separator *)
      Test.make ~name:"e7: edge separator (grid 1024)"
        (Staged.stage (fun () ->
             ignore (Decomp.Edge_separator.best grid ~seed:7)));
      (* E9 workload: leader election on the simulator *)
      Test.make ~name:"e9: leader election (tree 1024)"
        (Staged.stage (fun () ->
             ignore
               (Distr.Leader_election.run
                  (Distr.Cluster_view.whole tree)
                  ~rounds:(Traversal.diameter_double_sweep tree + 2))));
      (* E5 fast path: left-right planarity *)
      Test.make ~name:"e5: LR planarity (apollonian 2000)"
        (Staged.stage
           (let big = Generators.random_apollonian 2000 ~seed:9 in
            fun () -> ignore (Minorfree.Lr_planarity.is_planar big)));
      (* E12 workload: the distributed construction *)
      Test.make ~name:"e12: distributed decomposition (blob-chain 72)"
        (Staged.stage
           (let bc = Generators.blob_chain ~blobs:6 ~blob_size:12 ~seed:10 in
            fun () ->
              ignore
                (Distr.Distributed_decomposition.decompose bc ~epsilon:0.4)));
      (* E13 workload: exact dominating set *)
      Test.make ~name:"e13: exact dominating set (grid 36)"
        (Staged.stage
           (let g66 = Generators.grid 6 6 in
            fun () -> ignore (Optimize.Dominating.exact g66)));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let results_of test =
    let raw = Benchmark.all cfg instances test in
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  List.iter
    (fun test ->
      let results = results_of (Test.make_grouped ~name:"g" [ test ]) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some (est :: _) ->
              Printf.printf "  %-45s %12.0f ns/run\n" name est
          | _ -> Printf.printf "  %-45s (no estimate)\n" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", Experiments.e1);
    ("e2", Experiments.e2);
    ("e3", Experiments.e3);
    ("e4", Experiments.e4);
    ("e5", Experiments.e5);
    ("e6", Experiments.e6);
    ("e7", Experiments.e7);
    ("e8", Experiments.e8);
    ("e9", Experiments.e9);
    ("e10", Experiments.e10);
    ("e11", Experiments.e11);
    ("e12", Experiments.e12);
    ("e13", Experiments.e13);
    ("fault-sweep", Experiments.fault_sweep);
    ("congest-bench", Experiments.congest_bench);
    ("decomp-bench", Experiments.decomp_bench);
    ("route-bench", Experiments.route_bench);
    ("smoke", Experiments.smoke);
    ("timing", timing);
  ]

(* per-phase wall-clock of one experiment, read back from the span tree:
   the direct children of "exp.<name>" with their summed span ns *)
let phases_of tree name =
  match Obs.Agg.find_path tree [ "exp." ^ name ] with
  | None -> []
  | Some node ->
      List.map
        (fun (child, (c : Obs.Agg.node)) ->
          let ns =
            match Obs.Agg.SMap.find_opt "ns" c.Obs.Agg.volatile with
            | Some v -> v
            | None -> 0
          in
          Obs.Json.Obj
            [
              ("name", Obs.Json.Str child);
              ("count", Obs.Json.Int c.Obs.Agg.count);
              ("seconds", Obs.Json.Float (float_of_int ns /. 1e9));
            ])
        (Obs.Agg.SMap.bindings node.Obs.Agg.children)

let write_timings_json path ~jobs ~tree timings =
  let experiments =
    List.map
      (fun (name, seconds) ->
        Obs.Json.Obj
          [
            ("name", Obs.Json.Str name);
            ("seconds", Obs.Json.Float seconds);
            ("phases", Obs.Json.List (phases_of tree name));
          ])
      timings
  in
  let doc =
    Obs.Json.Obj
      [
        ("jobs", Obs.Json.Int jobs);
        ("experiments", Obs.Json.List experiments);
      ]
  in
  Obs.Export.write_file path (Obs.Json.to_string_pretty doc)

let () =
  (* split --jobs / --profile / --trace / --timings off the selection *)
  let rec parse_args acc jobs profile trace timings = function
    | [] -> (List.rev acc, jobs, profile, trace, timings)
    | "--jobs" :: v :: rest ->
        (match int_of_string_opt v with
        | Some j when j >= 1 -> parse_args acc (Some j) profile trace timings rest
        | _ ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n" v;
            exit 1)
    | "--fault-seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some s ->
            Experiments.fault_seed := s;
            parse_args acc jobs profile trace timings rest
        | None ->
            Printf.eprintf "--fault-seed expects an integer, got %S\n" v;
            exit 1)
    | "--drop-rate" :: v :: rest ->
        (match float_of_string_opt v with
        | Some p when p >= 0. && p <= 1. ->
            Experiments.fault_rates := [ p ];
            parse_args acc jobs profile trace timings rest
        | _ ->
            Printf.eprintf "--drop-rate expects a float in [0, 1], got %S\n" v;
            exit 1)
    | "--congest-n" :: v :: rest ->
        (match int_of_string_opt v with
        | Some m when m >= 4 ->
            Experiments.congest_n := m;
            parse_args acc jobs profile trace timings rest
        | _ ->
            Printf.eprintf "--congest-n expects an integer >= 4, got %S\n" v;
            exit 1)
    | "--congest-out" :: p :: rest ->
        Experiments.congest_out := p;
        parse_args acc jobs profile trace timings rest
    | "--decomp-n" :: v :: rest ->
        (match int_of_string_opt v with
        | Some m when m >= 4 ->
            Experiments.decomp_n := m;
            parse_args acc jobs profile trace timings rest
        | _ ->
            Printf.eprintf "--decomp-n expects an integer >= 4, got %S\n" v;
            exit 1)
    | "--route-n" :: v :: rest ->
        (match int_of_string_opt v with
        | Some x when x >= 4 ->
            Experiments.route_n := x;
            parse_args acc jobs profile trace timings rest
        | _ ->
            Printf.eprintf "--route-n expects an integer >= 4, got %S\n" v;
            exit 1)
    | "--route-demands" :: v :: rest ->
        (match int_of_string_opt v with
        | Some x when x >= 1 ->
            Experiments.route_demands := x;
            parse_args acc jobs profile trace timings rest
        | _ ->
            Printf.eprintf "--route-demands expects a positive integer, got %S\n" v;
            exit 1)
    | "--route-out" :: p :: rest ->
        Experiments.route_out := p;
        parse_args acc jobs profile trace timings rest
    | "--decomp-out" :: p :: rest ->
        Experiments.decomp_out := p;
        parse_args acc jobs profile trace timings rest
    | "--shards" :: v :: rest ->
        (match int_of_string_opt v with
        | Some s when s >= 1 ->
            Experiments.congest_shards := s;
            parse_args acc jobs profile trace timings rest
        | _ ->
            Printf.eprintf "--shards expects a positive integer, got %S\n" v;
            exit 1)
    | "--congest-scale-max" :: v :: rest ->
        (match int_of_string_opt v with
        | Some m when m >= 4 ->
            Experiments.congest_scale_max := m;
            parse_args acc jobs profile trace timings rest
        | _ ->
            Printf.eprintf
              "--congest-scale-max expects an integer >= 4, got %S\n" v;
            exit 1)
    | "--profile" :: p :: rest -> parse_args acc jobs (Some p) trace timings rest
    | "--trace" :: p :: rest -> parse_args acc jobs profile (Some p) timings rest
    | "--timings" :: p :: rest ->
        parse_args acc jobs profile trace (Some p) rest
    | [ (("--jobs" | "--profile" | "--trace" | "--timings" | "--fault-seed"
        | "--drop-rate" | "--congest-n" | "--congest-out" | "--shards"
        | "--congest-scale-max" | "--decomp-n"
        | "--decomp-out" | "--route-n" | "--route-demands"
        | "--route-out") as flag) ] ->
        Printf.eprintf "%s expects a value\n" flag;
        exit 1
    | name :: rest -> parse_args (name :: acc) jobs profile trace timings rest
  in
  let names, jobs_flag, profile, trace, timings_path =
    parse_args [] None None None None
      (List.tl (Array.to_list Sys.argv))
  in
  let jobs =
    match jobs_flag with Some j -> j | None -> Parallel.Pool.default_jobs ()
  in
  Experiments.pool := Parallel.Pool.create ~jobs ();
  let selected = if names = [] then List.map fst experiments else names in
  print_endline
    "Benchmark harness: Chang & Su, 'Narrowing the LOCAL-CONGEST Gaps in";
  print_endline
    "Sparse Networks via Expander Decompositions' (PODC 2022) reproduction.";
  Printf.printf "[worker pool: %d job%s]\n" jobs (if jobs = 1 then "" else "s");
  Obs.enable ();
  let timings = ref [] in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
          let t0 = Obs.Clock.wall_s () in
          (if name = "timing" then begin
             (* Bechamel measures the uninstrumented hot paths: recording
                spans inside its repetition loops would both distort the
                estimates and buffer millions of trace slices *)
             Obs.disable ();
             Fun.protect ~finally:Obs.enable f
           end
           else Obs.Span.with_ ("exp." ^ name) f);
          let dt = Obs.Clock.wall_s () -. t0 in
          timings := (name, dt) :: !timings;
          Printf.printf "[%s finished in %.1fs]\n" name dt
      | None ->
          Printf.eprintf
            "unknown experiment %S (available: %s)\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    selected;
  let tree, events = Obs.snapshot () in
  Option.iter
    (fun path -> write_timings_json path ~jobs ~tree (List.rev !timings))
    timings_path;
  (match profile with
  | None -> ()
  | Some path ->
      let meta =
        [
          ("harness", Obs.Json.Str "bench/main.exe");
          ("jobs", Obs.Json.Int jobs);
          ( "experiments",
            Obs.Json.List (List.map (fun s -> Obs.Json.Str s) selected) );
        ]
      in
      Obs.Export.write_file path
        (Obs.Json.to_string_pretty (Obs.Export.profile_json ~meta tree));
      Printf.printf "[profile written to %s]\n" path);
  match trace with
  | None -> ()
  | Some path ->
      Obs.Export.write_file path (Obs.Json.to_string (Obs.Trace.to_json events));
      Printf.printf "[trace written to %s]\n" path
