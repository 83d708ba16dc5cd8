(* [e2e.exe compare A... -- B...]: per (workload, metric), each side's
   median and quartiles, judged by the direction and bound BENCHMARK.json
   fixes for the metric.

   - Exact metrics (pure functions of the seed) must read the same in
     every run on both sides; compare runs made with the same seeds.
   - Other bounded metrics are [unresolved] when either side's quartile
     spread exceeds the bound, [regressed] when B's median is worse than
     A's by more than the bound, and [ok] otherwise.
   - Per-layer metrics have no bound and are printed for information.

   Every record must also be correct, with no failed checks, and carry
   every metric BENCHMARK.json names for its mode. Exits 1 on any
   regression or invalid record. *)

open Results

type rule = { lower_is_better : bool; bound : float option }

let load_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Obs.Json.of_string s

let list = function Obs.Json.List xs -> xs | _ -> failwith "expected a list"
let str = function Obs.Json.Str s -> s | _ -> failwith "expected a string"

(* BENCHMARK.json: metric name -> (direction, bound), by section *)
let load_spec path =
  let doc = load_json path in
  let section key =
    List.map
      (fun j ->
        ( str (field "name" j),
          {
            lower_is_better = str (field "better" j) = "lower";
            bound = Option.map num (Obs.Json.member "bound" j);
          } ))
      (list (field key doc))
  in
  (section "end_to_end", section "per_layer")

(* FILE is a document written by --out; FILE:SET picks the list of such
   documents stored under "sets" in a baseline file *)
let load_side args =
  List.concat_map
    (fun arg ->
      let docs =
        if Sys.file_exists arg then [ load_json arg ]
        else
          match String.rindex_opt arg ':' with
          | Some i ->
              let file = String.sub arg 0 i in
              let set = String.sub arg (i + 1) (String.length arg - i - 1) in
              list (field set (field "sets" (load_json file)))
          | None -> failwith (Printf.sprintf "no such file: %s" arg)
      in
      List.concat_map
        (fun d -> List.map record_of_json (list (field "runs" d)))
        docs)
    args

(* problems that make a record unusable, one line each *)
let invalid (e2e, layer) r =
  let names = List.map fst (if r.traced then layer else e2e) in
  let missing = List.filter (fun n -> not (List.mem_assoc n r.values)) names in
  let tag = Printf.sprintf "%s seed %d" r.workload r.seed in
  (if r.correct && r.failed = 0 then []
   else [ Printf.sprintf "%s: %d of %d checks failed" tag r.failed r.attempted ])
  @ List.map (fun n -> Printf.sprintf "%s: metric %s missing" tag n) missing

let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

let verdict metric rule a_vals b_vals =
  let exact =
    match find_metric metric with Some x -> x.exact | None -> false
  in
  match rule.bound with
  | None -> "info"
  | Some _ when exact ->
      let v0 = List.hd a_vals in
      if List.for_all (fun v -> v = v0) (a_vals @ b_vals) then "ok"
      else "regressed"
  | Some bound ->
      let ma = median a_vals and mb = median b_vals in
      let worse =
        (if rule.lower_is_better then mb -. ma else ma -. mb) /. Float.abs ma
      in
      if Float.max (spread a_vals) (spread b_vals) > bound then "unresolved"
      else if worse > bound then "regressed"
      else "ok"

let run ~spec_path a_args b_args =
  let ((e2e, layer) as spec) = load_spec spec_path in
  let a = load_side a_args and b = load_side b_args in
  let problems = List.concat_map (invalid spec) (a @ b) in
  List.iter (Printf.eprintf "invalid: %s\n") problems;
  let keys =
    List.sort_uniq compare (List.map (fun r -> (r.workload, r.traced)) (a @ b))
  in
  let regressed = ref 0 in
  let show (q1, q3) = Printf.sprintf "[%.6g, %.6g]" q1 q3 in
  List.iter
    (fun (w, traced) ->
      let side rs name =
        List.filter_map
          (fun r ->
            if r.workload = w && r.traced = traced then List.assoc_opt name r.values
            else None)
          rs
      in
      List.iter
        (fun (name, rule) ->
          match (side a name, side b name) with
          | [], _ | _, [] ->
              Printf.printf "%-15s %-27s unresolved (runs on one side only)\n" w
                name
          | av, bv ->
              let v = verdict name rule av bv in
              if v = "regressed" then incr regressed;
              Printf.printf "%-15s %-27s A %-12.6g %-25s B %-12.6g %-25s %s\n" w
                name (median av) (show (quartiles av)) (median bv)
                (show (quartiles bv)) v)
        (if traced then layer else e2e))
    keys;
  Printf.printf "%d regressed, %d invalid records\n" !regressed
    (List.length problems);
  if !regressed > 0 || problems <> [] then begin
    Printf.eprintf "compare: %d regressed, %d invalid records\n" !regressed
      (List.length problems);
    exit 1
  end
