type status = Fresh | Suppressed | Baselined

type report = {
  files_scanned : int;
  results : (Finding.t * status) list;
  baseline_size : int;
  stale : Finding.t list;
}

(* ------------------------------------------------------------------ *)
(* Source-tree loading                                                  *)
(* ------------------------------------------------------------------ *)

let dune_library_name content =
  (* first "(name X)" in the dune file; a token scan is enough for this
     repo's dune dialect *)
  let len = String.length content in
  let is_token_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_'
  in
  let rec find i =
    if i + 5 > len then None
    else if String.sub content i 5 = "(name" then begin
      let rec skip j =
        if j < len && (content.[j] = ' ' || content.[j] = '\n' || content.[j] = '\t')
        then skip (j + 1)
        else j
      in
      let s = skip (i + 5) in
      let rec stop j =
        if j < len && is_token_char content.[j] then stop (j + 1) else j
      in
      let e = stop s in
      if e > s then Some (String.sub content s (e - s)) else None
    end
    else find (i + 1)
  in
  find 0

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  content

let load_tree ?(pool = Parallel.Pool.sequential) ~root ~dirs () =
  let files = ref [] in
  let libraries = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    if Sys.file_exists abs && Sys.is_directory abs then begin
      let entries = Sys.readdir abs in
      Array.sort compare entries;
      Array.iter
        (fun name ->
          if String.length name > 0 && name.[0] <> '.' && name.[0] <> '_'
          then begin
            let rel' = Filename.concat rel name in
            let abs' = Filename.concat root rel' in
            if Sys.is_directory abs' then walk rel'
            else if Filename.check_suffix name ".ml" then
              files := (rel', abs') :: !files
            else if name = "dune" then
              match dune_library_name (read_file abs') with
              | Some lib -> libraries := (rel, lib) :: !libraries
              | None -> ()
          end)
        entries
    end
  in
  List.iter walk dirs;
  (* file reads and the comment-marker prescan fan out over the pool;
     PARSING stays on this domain because the compiler-libs lexer keeps
     global state (its string buffer, docstring registry) and is not
     domain-safe. Pool maps return in task-index order, so the source
     list is identical at every --jobs value. *)
  let read =
    Parallel.Pool.map_list pool
      (fun (rel, abs) ->
        let content = read_file abs in
        (rel, content, Source.prescan content))
      (List.rev !files)
  in
  let sources =
    List.map
      (fun (rel, content, pre) -> Source.of_string ~prescan:pre ~path:rel content)
      read
  in
  (sources, List.rev !libraries)

(* ------------------------------------------------------------------ *)
(* Analysis                                                             *)
(* ------------------------------------------------------------------ *)

let analyze ?(pool = Parallel.Pool.sequential) ?(rules = Rules.all)
    ?(libraries = []) ?(baseline = Baseline.empty) sources =
  let parsed =
    List.filter_map
      (fun (s : Source.t) ->
        match s.ast with Some str -> Some (s, str) | None -> None)
      sources
  in
  let project = Project.build ~libraries sources in
  let graph = Callgraph.build project parsed in
  let ctx = { Rule.sources = parsed; project; graph } in
  let parse_failures =
    List.filter_map
      (fun (s : Source.t) ->
        Option.map
          (fun msg ->
            Finding.at ~rule:"E000" ~severity:Finding.Error ~file:s.path
              ~line:1 ~col:0 msg)
          s.parse_error)
      sources
  in
  let per_source_rules, global_rules =
    List.partition (fun (r : Rule.t) -> r.scope = Rule.Per_source) rules
  in
  (* a Per_source rule's findings for a file depend only on that file's
     (immutable) AST plus the shared read-only project/graph, so the
     checks fan out one task per source; Global rules (call-graph chases,
     wrapper fixpoints) run here. Pool maps join in task-index order and
     the final sort below is total, so the report is byte-identical at
     every --jobs value. *)
  let per_source_findings =
    Parallel.Pool.map_list pool
      (fun (src, str) ->
        let sub = { Rule.sources = [ (src, str) ]; project; graph } in
        List.concat_map (fun (r : Rule.t) -> r.check sub) per_source_rules)
      parsed
  in
  let raw =
    parse_failures
    @ List.concat per_source_findings
    @ List.concat_map (fun (r : Rule.t) -> r.check ctx) global_rules
  in
  let by_path =
    List.fold_left
      (fun acc (s : Source.t) -> (s.path, s) :: acc)
      [] sources
  in
  let status_of (f : Finding.t) =
    let suppressed =
      match List.assoc_opt f.file by_path with
      | Some src -> Source.suppressed src ~rule:f.rule ~line:f.line
      | None -> false
    in
    if suppressed then Suppressed
    else if Baseline.mem baseline f then Baselined
    else Fresh
  in
  let results =
    List.sort_uniq
      (fun (a, _) (b, _) -> Finding.order a b)
      (List.map (fun f -> (f, status_of f)) raw)
  in
  let stale =
    Baseline.unmatched baseline
      (List.filter_map
         (fun (f, st) -> if st = Baselined then Some f else None)
         results)
    |> List.map (fun (rule, file, line) ->
           Finding.at ~rule ~severity:Finding.Error ~file ~line ~col:0
             "stale baseline entry: it matches no finding; regenerate the \
              baseline with --write-baseline")
    |> List.sort Finding.order
  in
  {
    files_scanned = List.length sources;
    results;
    baseline_size = Baseline.size baseline;
    stale;
  }

let fresh report =
  List.filter_map
    (fun (f, st) -> if st = Fresh then Some f else None)
    report.results

let counts report =
  List.fold_left
    (fun (f, s, b) (_, st) ->
      match st with
      | Fresh -> (f + 1, s, b)
      | Suppressed -> (f, s + 1, b)
      | Baselined -> (f, s, b + 1))
    (0, 0, 0) report.results

let exit_code report = if fresh report = [] then 0 else 1

let to_text report =
  let fresh_findings = fresh report in
  let f, s, b = counts report in
  let body = List.map Finding.to_text (fresh_findings @ report.stale) in
  let summary =
    Printf.sprintf
      "lint: %d file%s scanned; %d finding%s (%d new, %d suppressed, %d \
       baselined)"
      report.files_scanned
      (if report.files_scanned = 1 then "" else "s")
      (f + s + b)
      (if f + s + b = 1 then "" else "s")
      f s b
  in
  String.concat "\n" (body @ [ summary ]) ^ "\n"

let status_name = function
  | Fresh -> "fresh"
  | Suppressed -> "suppressed"
  | Baselined -> "baselined"

let to_json report =
  let f, s, b = counts report in
  let rule_counts =
    List.fold_left
      (fun acc ((fi : Finding.t), st) ->
        if st = Suppressed then acc
        else
          let cur = Option.value (List.assoc_opt fi.rule acc) ~default:0 in
          (fi.rule, cur + 1) :: List.remove_assoc fi.rule acc)
      [] report.results
    |> List.sort compare
  in
  let findings_json =
    List.map
      (fun (fi, st) ->
        Finding.to_json
          ~extra:[ ("status", Printf.sprintf "%S" (status_name st)) ]
          fi)
      report.results
  in
  let severities =
    List.map
      (fun (r : Rule.t) ->
        Printf.sprintf "%S: %S" r.id (Finding.severity_name r.severity))
      Rules.all
  in
  String.concat "\n"
    [
      "{";
      "  \"version\": 3,";
      Printf.sprintf "  \"severities\": {%s},"
        (String.concat ", " severities);
      Printf.sprintf "  \"files_scanned\": %d," report.files_scanned;
      Printf.sprintf "  \"new\": %d," f;
      Printf.sprintf "  \"suppressed\": %d," s;
      Printf.sprintf "  \"baselined\": %d," b;
      Printf.sprintf "  \"baseline_size\": %d," report.baseline_size;
      Printf.sprintf "  \"stale\": %d," (List.length report.stale);
      Printf.sprintf "  \"stale_entries\": [%s],"
        (String.concat ", " (List.map Finding.to_json report.stale));
      Printf.sprintf "  \"counts\": {%s},"
        (String.concat ", "
           (List.map
              (fun (r, c) -> Printf.sprintf "%S: %d" r c)
              rule_counts));
      Printf.sprintf "  \"findings\": [%s]"
        (if findings_json = [] then ""
         else "\n    " ^ String.concat ",\n    " findings_json ^ "\n  ");
      "}";
    ]
  ^ "\n"
