(* End-to-end pipeline benchmark: decompose, build the routing hierarchy,
   serve demand batches, execute a slice on the CONGEST simulator and run
   the Theorem 1.2 MIS application, on one process with the sequential
   pool (EXPANDER_JOBS is ignored).

     e2e.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
             [--size full|tiny] [--out FILE]
     e2e.exe compare [--spec BENCHMARK.json] A.json... -- B.json...

   A run measures one workload -- one per process, so that process-wide
   numbers such as the heap peak belong to it -- and prints one JSON line
   on stdout, {"correct", "attempted", "failed", "metrics"}, with the
   end-to-end metrics under --trace 0 and the per-layer metrics under
   --trace 1; progress and failed checks go to stderr. --out FILE
   additionally writes the record, tagged with workload, seed and host,
   for [compare]. Nothing else is written. See README.md. *)

let usage =
  "usage: e2e.exe --workload W [--seed N] [--seconds S] [--trace 0|1] \
   [--size full|tiny] [--out FILE] | e2e.exe compare [--spec FILE] A... -- B..."

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 1)
    fmt

type opts = {
  workload : Measure.spec option;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
  out : string option;
}

let rec parse o = function
  | [] -> o
  | "--workload" :: w :: rest -> (
      let named (s : Measure.spec) = s.name = w in
      match List.find_opt named Measure.workloads with
      | Some spec -> parse { o with workload = Some spec } rest
      | None ->
          fail "--workload expects one of %s, got %S"
            (String.concat ", "
               (List.map (fun (s : Measure.spec) -> s.name) Measure.workloads))
            w)
  | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some seed -> parse { o with seed } rest
      | None -> fail "--seed expects an integer, got %S" v)
  | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s >= 0. && Float.is_finite s ->
          parse { o with seconds = s } rest
      | _ -> fail "--seconds expects a non-negative number, got %S" v)
  | "--trace" :: v :: rest -> (
      match v with
      | "0" -> parse { o with trace = false } rest
      | "1" -> parse { o with trace = true } rest
      | _ -> fail "--trace expects 0 or 1, got %S" v)
  | "--size" :: v :: rest -> (
      match v with
      | "full" -> parse { o with tiny = false } rest
      | "tiny" -> parse { o with tiny = true } rest
      | _ -> fail "--size expects full or tiny, got %S" v)
  | "--out" :: p :: rest -> parse { o with out = Some p } rest
  | [ (("--workload" | "--seed" | "--seconds" | "--trace" | "--size" | "--out")
       as flag) ] ->
      fail "%s expects a value" flag
  | arg :: _ -> fail "unknown argument %S; %s" arg usage

let host =
  Obs.Json.Obj
    [
      ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Obs.Json.Str Sys.ocaml_version);
    ]

let run o =
  let spec =
    match o.workload with
    | Some spec -> if o.tiny then Measure.tiny spec else spec
    | None -> fail "--workload is required; %s" usage
  in
  let r =
    if o.trace then Measure.run_traced spec ~seed:o.seed ~seconds:o.seconds
    else Measure.run spec ~seed:o.seed ~seconds:o.seconds
  in
  print_endline (Results.json_text (Results.result_json r));
  match o.out with
  | None -> ()
  | Some path ->
      let doc =
        Obs.Json.Obj
          [
            ("seed", Obs.Json.Int o.seed);
            ("seconds", Obs.Json.Float o.seconds);
            ("size", Obs.Json.Str (if o.tiny then "tiny" else "full"));
            ("host", host);
            ("runs", Obs.Json.List [ Results.record_json r ]);
          ]
      in
      Obs.Export.write_file path (Results.json_text doc ^ "\n")

let compare args =
  let spec, args =
    match args with
    | "--spec" :: p :: rest -> (p, rest)
    | [ "--spec" ] -> fail "--spec expects a value"
    | rest -> ("BENCHMARK.json", rest)
  in
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> fail "compare expects A... -- B...; %s" usage
  in
  let a, b = split [] args in
  if a = [] || b = [] then fail "compare needs result files on both sides of --";
  try Compare.run ~spec_path:spec a b
  with Failure msg | Sys_error msg | Obs.Json.Parse_error msg ->
    fail "compare: %s" msg

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: args -> compare args
  | args ->
      run
        (parse
           {
             workload = None;
             seed = 20220711;
             seconds = 15.;
             trace = false;
             tiny = false;
             out = None;
           }
           args)
