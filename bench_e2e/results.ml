(* Metric vocabulary, order statistics and the result-record format shared
   by the measuring side (Measure) and the comparing side (Compare).

   Units live here because every printed value carries its unit;
   directions and regression bounds live in BENCHMARK.json, which
   [compare] reads. [exact] metrics are pure functions of the seed: two
   runs of one commit at one seed must agree on them to the last digit;
   the others are timings or the heap peak. *)

type metric = { name : string; unit_ : string; exact : bool }

let m name unit_ kind = { name; unit_; exact = kind = `Exact }

(* printed by every untraced run, for every workload *)
let end_to_end =
  [
    m "setup_s" "s" `Measured;
    m "demands_per_s" "1/s" `Measured;
    m "sim_s" "s" `Measured;
    m "app_s" "s" `Measured;
    m "top_heap_mb" "MB" `Measured;
    m "hops_p50" "hops" `Exact;
    m "hops_p99" "hops" `Exact;
    m "stretch_p99" "ratio" `Exact;
    m "congestion_max" "count" `Exact;
    m "sim_rounds_p50" "rounds" `Exact;
    m "sim_rounds_p99" "rounds" `Exact;
    m "app_rounds" "rounds" `Exact;
    m "mis_size" "count" `Exact;
  ]

(* printed by every traced run: one pipeline pass read back from the Obs
   span tree, grouped by the module that does the work *)
let per_layer =
  [
    (* Core.Pipeline, the routing set-up (Charged mode) *)
    m "pipeline.prepare_s" "s" `Measured;
    m "pipeline.prepare_mw" "Mwords" `Measured;
    m "pipeline.geometry_s" "s" `Measured;
    m "pipeline.diameter_s" "s" `Measured;
    (* Flow.Decomp_engine, inside the routing set-up *)
    m "decomp.s" "s" `Measured;
    m "decomp.mw" "Mwords" `Measured;
    m "decomp.clusters" "count" `Exact;
    m "flow.games" "count" `Exact;
    m "flow.game_rounds" "count" `Exact;
    m "flow.flow_calls" "count" `Exact;
    m "flow.pushes" "count" `Exact;
    m "flow.relabels" "count" `Exact;
    m "flow.heuristic_cuts" "count" `Exact;
    (* Route.Hierarchy *)
    m "hierarchy.build_s" "s" `Measured;
    m "hierarchy.build_mw" "Mwords" `Measured;
    m "hierarchy.shortcuts" "count" `Exact;
    m "hierarchy.rebuilt_leaves" "count" `Exact;
    m "hierarchy.tree_height" "count" `Exact;
    m "hierarchy.max_leaf_depth" "count" `Exact;
    m "hierarchy.route_ns_p50" "ns" `Measured;
    m "hierarchy.route_ns_p99" "ns" `Measured;
    m "hierarchy.hops_per_distance" "ratio" `Exact;
    (* Route.Service *)
    m "service.serve_s" "s" `Measured;
    m "service.serve_mw" "Mwords" `Measured;
    m "service.ns_per_hop" "ns" `Measured;
    m "service.ns_per_demand" "ns" `Measured;
    m "service.hops_total" "hops" `Exact;
    m "service.fallbacks" "count" `Exact;
    (* Congest.Network, driven by Distr.Witness_routing *)
    m "network.sim_s" "s" `Measured;
    m "network.messages" "count" `Exact;
    m "network.bits" "bits" `Exact;
    m "network.active_vertices" "count" `Exact;
    m "network.ns_per_message" "ns" `Measured;
    m "network.words_per_message" "words" `Measured;
    m "network.inbox_peak_words" "words" `Exact;
    (* Core.App_mis: its Simulated-mode Pipeline.prepare and
       Distr.Walk_routing gathering *)
    m "app.prepare_s" "s" `Measured;
    m "pipeline.election_s" "s" `Measured;
    m "pipeline.gather_s" "s" `Measured;
    m "pipeline.gather_attempts" "count" `Exact;
    m "walk.s" "s" `Measured;
    m "walk.messages" "count" `Exact;
    m "app.local_solve_s" "s" `Measured;
    (* the harness itself *)
    m "graph.gen_s" "s" `Measured;
    m "trace.overhead_frac" "ratio" `Measured;
  ]

let find_metric name =
  List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                     *)
(* ------------------------------------------------------------------ *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* first and third quartile by Python's statistics.quantiles(n=4), the
   default "exclusive" method, so spreads read the same as in a Python
   harness over the same values *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else begin
    let q i =
      let mm = ld + 1 in
      let j = max 1 (min (ld - 1) (i * mm / 4)) in
      let delta = (i * mm) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)
  end

(* nearest-rank percentile of a sorted array, as Route.Service reports *)
let percentile_sorted a p =
  let len = Array.length a in
  if len = 0 then 0.
  else a.(max 0 (min (len - 1) ((((len * p) + 99) / 100) - 1)))

(* ------------------------------------------------------------------ *)
(* Records                                                              *)
(* ------------------------------------------------------------------ *)

(* one workload run: what the last stdout line reports, plus where it
   came from *)
type record = {
  workload : string;
  seed : int;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;  (* metric name -> value *)
}

(* JSON text with every float digit kept: Obs.Json prints %.6g, which
   would flatten timings into values that repeat across runs *)
let rec json_text = function
  | Obs.Json.Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
      else Printf.sprintf "%.17g" f
  | Obs.Json.List xs -> "[" ^ String.concat ", " (List.map json_text xs) ^ "]"
  | Obs.Json.Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map
             (fun (k, v) -> json_text (Obs.Json.Str k) ^ ": " ^ json_text v)
             kvs)
      ^ "}"
  | v -> Obs.Json.to_string v

let result_json r =
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool r.correct);
      ("attempted", Obs.Json.Int r.attempted);
      ("failed", Obs.Json.Int r.failed);
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun (name, v) ->
               let unit_ =
                 match find_metric name with Some x -> x.unit_ | None -> ""
               in
               ( name,
                 Obs.Json.Obj
                   [ ("value", Obs.Json.Float v); ("unit", Obs.Json.Str unit_) ]
               ))
             r.values) );
    ]

let record_json r =
  Obs.Json.Obj
    [
      ("workload", Obs.Json.Str r.workload);
      ("seed", Obs.Json.Int r.seed);
      ("trace", Obs.Json.Bool r.traced);
      ("result", result_json r);
    ]

let num = function
  | Obs.Json.Int i -> float_of_int i
  | Obs.Json.Float f -> f
  | _ -> failwith "expected a number"

let field k j =
  match Obs.Json.member k j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing field %S" k)

let record_of_json j =
  let res = field "result" j in
  let str = function Obs.Json.Str s -> s | _ -> failwith "expected a string" in
  let bool = function Obs.Json.Bool b -> b | _ -> failwith "expected a bool" in
  let values =
    match field "metrics" res with
    | Obs.Json.Obj kvs -> List.map (fun (k, v) -> (k, num (field "value" v))) kvs
    | _ -> failwith "metrics must be an object"
  in
  {
    workload = str (field "workload" j);
    seed = int_of_float (num (field "seed" j));
    traced = bool (field "trace" j);
    correct = bool (field "correct" res);
    attempted = int_of_float (num (field "attempted" res));
    failed = int_of_float (num (field "failed" res));
    values;
  }
