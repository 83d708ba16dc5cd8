(* Determinism, domain-safety, hot-path and dead-surface linter over
   lib/, bench/, bench_e2e/ and bin/.

     dune build @lint                  # full run, fails on new findings
     dune exec bin/lint.exe -- --format json
     dune exec bin/lint.exe -- --jobs 4
     dune exec bin/lint.exe -- --explain P002
     dune exec bin/lint.exe -- --write-baseline lint.baseline

   Findings are AST-level (compiler-libs Parsetree), reported as
   file:line:col with a rule id. A finding is silenced either by an
   inline comment on the same or the preceding line —
       (* lint: allow D003 timing harness *)
   — or by an entry in the checked-in baseline file (grandfathered
   findings; see --write-baseline). A baseline entry that matches no
   finding is named as stale, and --verify-report fails on it: once its
   finding is fixed, it would grandfather the next one on that line.
   Hot-path roots for the A001 allocation and A002 comparison rules are
   declared the same way:
       (* lint: hot *)

   The scanned files outside lib/ are the production program: U001
   flags every lib/ value that none of them reaches through the call
   graph, so each --dirs entry must exist under --root.

   The linter eats its own cooking: --jobs N fans file loading and the
   per-file rules out over the Parallel.Pool, and the report is
   byte-identical at every N (see --compare-reports). *)

let usage () =
  print_string
    "usage: lint.exe [options]\n\
     \  --root DIR        repo root to scan (default .)\n\
     \  --dirs A,B,C      directories under root, each of which must exist\n\
     \                    (default lib,bench,bench_e2e,bin)\n\
     \  --format FMT      text | json (default text)\n\
     \  --jobs N          fan per-file work out over N domains (default 1)\n\
     \  --baseline FILE   baseline of grandfathered findings\n\
     \  --write-baseline FILE  regenerate the baseline and exit\n\
     \  --report FILE     also write the JSON report to FILE\n\
     \  --rules           print the rule catalog and exit\n\
     \  --explain RULE    print one rule's rationale and how to fix it\n\
     \  --verify-report FILE   exit 1 unless FILE reports zero new findings\n\
     \                    and zero stale baseline entries\n\
     \  --compare-reports A B  exit 1 unless files A and B are byte-identical\n"

let print_rules () =
  List.iter
    (fun (r : Analysis.Rule.t) ->
      Printf.printf "%s (%s, %s) — %s\n  %s\n" r.id
        (Analysis.Finding.severity_name r.severity)
        (match r.scope with
        | Analysis.Rule.Per_source -> "per-file"
        | Analysis.Rule.Global -> "whole-project")
        r.title r.doc)
    Analysis.Rules.all

let explain id =
  match Analysis.Rules.find id with
  | Some (r : Analysis.Rule.t) ->
      Printf.printf "%s (%s) — %s\n\nWhy it fires:\n  %s\n\nHow to fix:\n  %s\n"
        r.id
        (Analysis.Finding.severity_name r.severity)
        r.title r.doc r.fix;
      exit 0
  | None ->
      Printf.eprintf "lint: unknown rule %S; --rules lists the catalog\n" id;
      exit 2

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  content

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* "\"KEY\": N" in a version-3 report without a JSON parser: the keys
   "new" and "stale" are emitted exactly once, at the top level, by
   Engine.to_json *)
let count_of_report key content =
  let key = Printf.sprintf "%S:" key in
  let klen = String.length key in
  let len = String.length content in
  let rec find i =
    if i + klen > len then None
    else if String.sub content i klen = key then begin
      let rec skip j =
        if j < len && content.[j] = ' ' then skip (j + 1) else j
      in
      let s = skip (i + klen) in
      let rec stop j =
        if j < len && content.[j] >= '0' && content.[j] <= '9' then
          stop (j + 1)
        else j
      in
      let e = stop s in
      if e > s then Some (int_of_string (String.sub content s (e - s)))
      else None
    end
    else find (i + 1)
  in
  find 0

let verify_report path =
  let content = read_file path in
  match (count_of_report "new" content, count_of_report "stale" content) with
  | Some 0, Some 0 ->
      Printf.printf "lint: %s reports 0 new findings, 0 stale baseline entries\n"
        path;
      exit 0
  | Some n, Some _ when n > 0 ->
      Printf.eprintf
        "lint: %s reports %d new finding%s; fix them or suppress each with \
         a reasoned allow comment (never silently baseline)\n"
        path n
        (if n = 1 then "" else "s");
      exit 1
  | Some _, Some n ->
      Printf.eprintf
        "lint: %s reports %d stale baseline entr%s matching no finding; \
         regenerate the baseline with --write-baseline\n"
        path n
        (if n = 1 then "y" else "ies");
      exit 1
  | _ ->
      Printf.eprintf
        "lint: %s has no \"new\" or \"stale\" count — not a lint report?\n"
        path;
      exit 2

let compare_reports a b =
  if read_file a = read_file b then begin
    Printf.printf "lint: %s and %s are byte-identical\n" a b;
    exit 0
  end
  else begin
    Printf.eprintf
      "lint: %s and %s differ — per-file fan-out broke report determinism\n"
      a b;
    exit 1
  end

let () =
  let root = ref "." in
  let dirs = ref [ "lib"; "bench"; "bench_e2e"; "bin" ] in
  let format = ref "text" in
  let jobs = ref 1 in
  let baseline_path = ref None in
  let write_baseline = ref None in
  let report_path = ref None in
  let rec parse = function
    | [] -> ()
    | "--root" :: v :: rest ->
        root := v;
        parse rest
    | "--dirs" :: v :: rest ->
        dirs := String.split_on_char ',' v;
        parse rest
    | "--format" :: v :: rest ->
        format := v;
        parse rest
    | "--jobs" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 1 -> jobs := n
        | _ ->
            Printf.eprintf "lint: --jobs takes a positive integer, got %S\n" v;
            exit 2);
        parse rest
    | "--baseline" :: v :: rest ->
        baseline_path := Some v;
        parse rest
    | "--write-baseline" :: v :: rest ->
        write_baseline := Some v;
        parse rest
    | "--report" :: v :: rest ->
        report_path := Some v;
        parse rest
    | "--rules" :: _ ->
        print_rules ();
        exit 0
    | "--explain" :: v :: _ -> explain v
    | "--verify-report" :: v :: _ -> verify_report v
    | "--compare-reports" :: a :: b :: _ -> compare_reports a b
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | arg :: _ ->
        Printf.eprintf "lint: unknown argument %S\n" arg;
        usage ();
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !format <> "text" && !format <> "json" then begin
    Printf.eprintf "lint: --format must be text or json, got %S\n" !format;
    exit 2
  end;
  List.iter
    (fun d ->
      let path = Filename.concat !root d in
      if not (Sys.file_exists path && Sys.is_directory path) then begin
        Printf.eprintf "lint: --dirs entry %S is not a directory under %s\n"
          d !root;
        exit 2
      end)
    !dirs;
  let pool = Parallel.Pool.create ~jobs:!jobs () in
  let sources, libraries =
    Analysis.Engine.load_tree ~pool ~root:!root ~dirs:!dirs ()
  in
  if sources = [] then begin
    Printf.eprintf "lint: no .ml files found under %s (dirs: %s)\n" !root
      (String.concat ", " !dirs);
    exit 2
  end;
  match !write_baseline with
  | Some path ->
      (* regenerate: every finding that is not inline-suppressed gets
         grandfathered *)
      let report = Analysis.Engine.analyze ~pool ~libraries sources in
      let kept =
        List.filter_map
          (fun (f, st) ->
            if st = Analysis.Engine.Suppressed then None else Some f)
          report.Analysis.Engine.results
      in
      write_file path (Analysis.Baseline.to_string (Analysis.Baseline.of_findings kept));
      Printf.printf "lint: wrote %d entr%s to %s\n" (List.length kept)
        (if List.length kept = 1 then "y" else "ies")
        path
  | None ->
      let baseline =
        match !baseline_path with
        | Some p -> Analysis.Baseline.load (Filename.concat !root p)
        | None -> Analysis.Baseline.empty
      in
      let report = Analysis.Engine.analyze ~pool ~libraries ~baseline sources in
      (match !report_path with
      | Some p -> write_file p (Analysis.Engine.to_json report)
      | None -> ());
      print_string
        (match !format with
        | "json" -> Analysis.Engine.to_json report
        | _ -> Analysis.Engine.to_text report);
      exit (Analysis.Engine.exit_code report)
