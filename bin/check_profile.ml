(* Profile and bench validator for the @default gates.

     check_profile.exe --schema PROFILE [--trace TRACE]
     check_profile.exe --compare A B
     check_profile.exe --bench BENCH [--at-least NAME X] [--at-most NAME X]...

   --schema structurally validates a profile emitted by bench/main.exe
   --profile: schema name/version, the deterministic section (span tree
   of integer counters, totals, peaks) and the volatile section; fault
   counters (net.dropped / net.duplicated / net.crashed_rounds) must be
   non-negative and never exceed congest.messages in the same node. With
   --trace it also checks the Chrome trace_event file is well-formed
   (an object with a traceEvents list of complete events). --compare
   parses two profiles and fails unless their deterministic sections
   are identical after canonical re-serialization — the cross-run /
   cross---jobs parity contract.

   --bench validates a BENCH_congest / BENCH_decomp / BENCH_route
   document written by the congest-bench, decomp-bench or route-bench
   experiment. Those benches evaluate their invariants on the typed
   values they hold and record the outcomes as "checks" ([{name, at,
   ok}]), and the figures whose threshold depends on the run's size as
   "claims" ([{name, at, value}]). The checker accepts only a known
   schema and version, fails unless the checks are non-empty and every
   one is ok, and for each --at-least / --at-most bound requires the
   named claim to exist and to lie within the bound at every row.

   Exit code 0 on success, 1 with a one-line message on the first
   violation found, 2 on a usage error. *)

open Obs

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse path =
  match Json.of_string (read_file path) with
  | j -> j
  | exception Json.Parse_error msg -> fail "%s: JSON parse error: %s" path msg
  | exception Sys_error msg -> fail "cannot read %s: %s" path msg

let require path name j =
  match Json.member name j with
  | Some v -> v
  | None -> fail "%s: missing %S member" path name

(* fault counters recorded by Obs.Meter.faults: non-negative, and a span
   cannot drop more messages than it sent *)
let fault_counters = [ "net.dropped"; "net.duplicated"; "net.crashed_rounds" ]

let check_fault_counters path ctx fields =
  List.iter
    (fun k ->
      match List.assoc_opt k fields with
      | Some (Json.Int v) when v < 0 -> fail "%s: %s.%s is negative" path ctx k
      | _ -> ())
    fault_counters;
  match (List.assoc_opt "net.dropped" fields,
         List.assoc_opt "congest.messages" fields)
  with
  | Some (Json.Int d), Some (Json.Int m) when d > m ->
      fail "%s: %s has net.dropped = %d > congest.messages = %d" path ctx d m
  | _ -> ()

let int_object path ctx = function
  | Json.Obj fields ->
      List.iter
        (fun (k, v) ->
          match v with
          | Json.Int _ -> ()
          | _ -> fail "%s: %s.%s is not an integer" path ctx k)
        fields;
      check_fault_counters path ctx fields
  | _ -> fail "%s: %s is not an object" path ctx

(* the deterministic span tree: count plus optional metrics/max/children *)
let rec check_node path ctx j =
  match j with
  | Json.Obj fields ->
      (match List.assoc_opt "count" fields with
      | Some (Json.Int c) when c >= 0 -> ()
      | Some (Json.Int _) -> fail "%s: %s.count is negative" path ctx
      | _ -> fail "%s: %s.count missing or not an integer" path ctx);
      List.iter
        (fun (k, v) ->
          match k with
          | "count" -> ()
          | "metrics" | "max" -> int_object path (ctx ^ "." ^ k) v
          | "children" ->
              (match v with
              | Json.Obj kids ->
                  List.iter
                    (fun (name, kid) ->
                      check_node path (ctx ^ "/" ^ name) kid)
                    kids
              | _ -> fail "%s: %s.children is not an object" path ctx)
          | other -> fail "%s: %s has unexpected member %S" path ctx other)
        fields
  | _ -> fail "%s: %s is not an object" path ctx

let check_schema path =
  let doc = parse path in
  (match require path "schema" doc with
  | Json.Str s when s = Export.schema_name -> ()
  | Json.Str s ->
      fail "%s: schema is %S, expected %S" path s Export.schema_name
  | _ -> fail "%s: schema is not a string" path);
  (match require path "version" doc with
  | Json.Int v when v = Export.schema_version -> ()
  | Json.Int v ->
      fail "%s: version is %d, expected %d" path v Export.schema_version
  | _ -> fail "%s: version is not an integer" path);
  let det = require path "deterministic" doc in
  check_node path "spans" (require path "spans" det);
  int_object path "totals" (require path "totals" det);
  int_object path "peaks" (require path "peaks" det);
  let vol = require path "volatile" doc in
  (match require path "spans" vol with
  | Json.Obj _ -> ()
  | _ -> fail "%s: volatile.spans is not an object" path);
  Printf.printf "%s: profile ok\n" path

let check_trace path =
  let doc = parse path in
  match require path "traceEvents" doc with
  | Json.List events ->
      List.iteri
        (fun i e ->
          let ctx = Printf.sprintf "traceEvents[%d]" i in
          match e with
          | Json.Obj _ ->
              (match Json.member "ph" e with
              | Some (Json.Str "X") -> ()
              | _ -> fail "%s: %s.ph is not \"X\"" path ctx);
              List.iter
                (fun k ->
                  match Json.member k e with
                  | Some (Json.Str _) when k = "name" -> ()
                  | Some (Json.Int v) when k <> "name" && v >= 0 -> ()
                  | _ ->
                      fail "%s: %s.%s missing or ill-typed" path ctx k)
                [ "name"; "ts"; "dur"; "pid"; "tid" ]
          | _ -> fail "%s: %s is not an object" path ctx)
        events;
      Printf.printf "%s: trace ok (%d events)\n" path (List.length events)
  | _ -> fail "%s: traceEvents is not a list" path

(* canonical form of the deterministic section: re-serialized compactly,
   so formatting differences cannot mask or fake a mismatch *)
let canonical path =
  Json.to_string (require path "deterministic" (parse path))

let compare_profiles a b =
  let ca = canonical a and cb = canonical b in
  if String.equal ca cb then
    Printf.printf "%s == %s: deterministic sections identical (%d bytes)\n" a b
      (String.length ca)
  else fail "%s and %s: deterministic sections differ" a b

(* the bench documents --bench understands: schema name and version.
   route-bench writes version 4 (no reuse axis); version 3 stays only for
   the committed BENCH_route.json, recorded before the axis went. *)
let bench_schemas =
  [ ("expander-congest-bench", 3); ("expander-decomp-bench", 1);
    ("expander-decomp-bench", 2); ("expander-route-bench", 3);
    ("expander-route-bench", 4) ]

let str path name j =
  match Json.member name j with
  | Some (Json.Str s) -> s
  | _ -> fail "%s: %s missing or not a string" path name

let rows path name j =
  match Json.member name j with
  | Some (Json.List l) -> l
  | _ -> fail "%s: %s missing or not a list" path name

let number = function
  | Some (Json.Int v) -> Some (float_of_int v)
  | Some (Json.Float v) -> Some v
  | _ -> None

(* Version 1 of BENCH_decomp.json predates recorded checks: derive them
   from its rows with decomp-bench's own formulas. The committed file
   stays at version 1 because a fresh decomp-bench run measures
   cut-matching slower than spectral at the grid's top rung, which fails
   @decomp-frontier (EXPERIMENTS.md section D); this adapter goes when the
   file is regenerated. *)
let decomp_v1_verdicts path doc =
  let results = rows path "results" doc in
  let num name r =
    match number (Json.member name r) with
    | Some v -> v
    | None -> fail "%s: %s missing or not numeric" path name
  in
  let verdict name at (key, v) =
    Json.Obj [ ("name", Json.Str name); ("at", Json.Str at); (key, v) ]
  in
  let checks =
    List.concat_map
      (fun r ->
        let at =
          Printf.sprintf "%s/n=%.0f/%s" (str path "family" r) (num "n" r)
            (str path "engine" r)
        in
        verdict "inter_fraction_bound" at
          ("ok", Json.Bool (num "inter_fraction" r <= 1.))
        :: List.map
             (fun ok -> verdict "oracle_ok" at ("ok", ok))
             (Option.to_list (Json.member "oracle_ok" r)))
      results
  in
  let top = List.fold_left (fun m r -> Float.max m (num "n" r)) 0. results in
  let at_top engine family r =
    str path "engine" r = engine && str path "family" r = family
    && num "n" r = top
  in
  let claims =
    List.concat_map
      (fun cm ->
        let family = str path "family" cm in
        match List.find_opt (at_top "spectral" family) results with
        | Some sp when at_top "cutmatching" family cm ->
            let at = Printf.sprintf "%s/n=%.0f" family top in
            let claim name v = verdict name at ("value", Json.Float v) in
            [ claim "frontier_time_ratio"
                (num "seconds" cm /. Float.max 1e-9 (num "seconds" sp));
              claim "frontier_fraction_gap"
                (num "inter_fraction" cm -. num "inter_fraction" sp) ]
        | _ -> [])
      results
  in
  (checks, claims)

(* [bounds] lists (claim name, at_least, bound) *)
let check_bench path bounds =
  let doc = parse path in
  let schema = str path "schema" doc in
  let version =
    match Json.member "version" doc with Some (Json.Int v) -> v | _ -> -1
  in
  if not (List.mem (schema, version) bench_schemas) then
    fail "%s: unknown bench schema %s version %d" path schema version;
  let checks, claims =
    if (schema, version) = ("expander-decomp-bench", 1) then
      decomp_v1_verdicts path doc
    else (rows path "checks" doc, rows path "claims" doc)
  in
  if checks = [] then fail "%s: no checks recorded" path;
  List.iter
    (fun c ->
      if Json.member "ok" c <> Some (Json.Bool true) then
        fail "%s: check %s failed at %s" path (str path "name" c)
          (str path "at" c))
    checks;
  List.iter
    (fun (name, at_least, bound) ->
      let named =
        List.filter (fun c -> Json.member "name" c = Some (Json.Str name)) claims
      in
      if named = [] then fail "%s: claim %s absent" path name;
      List.iter
        (fun c ->
          let at = str path "at" c in
          match number (Json.member "value" c) with
          | None -> fail "%s: claim %s at %s is not numeric" path name at
          | Some v ->
              if if at_least then v < bound else v > bound then
                fail "%s: claim %s = %g at %s, required %s %g" path name v at
                  (if at_least then ">=" else "<=")
                  bound)
        named)
    bounds;
  Printf.printf "%s: %s ok (%d checks, %d claim bounds)\n" path schema
    (List.length checks) (List.length bounds)

let usage () =
  prerr_endline
    "usage: check_profile.exe --schema PROFILE [--trace TRACE]\n\
    \       check_profile.exe --compare A B\n\
    \       check_profile.exe --bench BENCH [--at-least NAME X] \
     [--at-most NAME X]...";
  exit 2

let guarded f =
  try f ()
  with Bad msg ->
    prerr_endline msg;
    exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "--schema" :: profile :: rest ->
      guarded (fun () ->
          check_schema profile;
          match rest with
          | [] -> ()
          | [ "--trace"; tr ] -> check_trace tr
          | _ -> usage ())
  | [ _; "--compare"; a; b ] -> guarded (fun () -> compare_profiles a b)
  | _ :: "--bench" :: bench :: rest ->
      let rec bounds = function
        | [] -> []
        | (("--at-least" | "--at-most") as flag) :: name :: x :: tl -> (
            match float_of_string_opt x with
            | Some b when Float.is_finite b ->
                (name, flag = "--at-least", b) :: bounds tl
            | _ -> usage ())
        | _ -> usage ()
      in
      let bounds = bounds rest in
      guarded (fun () -> check_bench bench bounds)
  | _ -> usage ()
