(* Observability subsystem tests: span-tree aggregation, disabled-mode
   no-op behaviour, the hand-rolled JSON codec, meter/metric recording,
   the exporters, and the cross-jobs parity property — the deterministic
   profile section must be byte-identical at --jobs 1 and --jobs 4. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* run [f] inside an enabled, freshly reset Obs; return its result and
   the merged snapshot tree, leaving Obs disabled afterwards *)
let recording f =
  Obs.reset ();
  Obs.enable ();
  let r = f () in
  let tree = Obs.snapshot_tree () in
  Obs.disable ();
  (r, tree)

let sum_of (node : Obs.Agg.node) key =
  match Obs.Agg.SMap.find_opt key node.Obs.Agg.sums with
  | Some v -> v
  | None -> 0

let max_of (node : Obs.Agg.node) key =
  match Obs.Agg.SMap.find_opt key node.Obs.Agg.maxes with
  | Some v -> v
  | None -> 0

let node_at tree path =
  match Obs.Agg.find_path tree path with
  | Some n -> n
  | None -> Alcotest.fail ("no span node at " ^ String.concat "/" path)

(* ------------------------------------------------------------------ *)
(* Span tree                                                            *)
(* ------------------------------------------------------------------ *)

let test_span_tree () =
  let (), tree =
    recording (fun () ->
        Obs.Span.with_ "root" (fun () ->
            Obs.Metric.count "items" 3;
            for _ = 1 to 2 do
              Obs.Span.with_ "child" (fun () -> Obs.Metric.incr "hits")
            done;
            Obs.Span.with_ "other" (fun () -> Obs.Metric.set_max "peak" 7);
            Obs.Span.with_ "other" (fun () -> Obs.Metric.set_max "peak" 5)))
  in
  let root = node_at tree [ "root" ] in
  check "root completed once" 1 root.Obs.Agg.count;
  check "root counter" 3 (sum_of root "items");
  let child = node_at tree [ "root"; "child" ] in
  check "child completed twice" 2 child.Obs.Agg.count;
  check "incr summed" 2 (sum_of child "hits");
  let other = node_at tree [ "root"; "other" ] in
  check "set_max merges with max" 7 (max_of other "peak")

let test_exception_safe_span () =
  let (), tree =
    recording (fun () ->
        match
          Obs.Span.with_ "outer" (fun () ->
              Obs.Span.with_ "boom" (fun () -> failwith "x"))
        with
        | exception Failure _ -> ()
        | () -> Alcotest.fail "exception swallowed")
  in
  (* both spans closed despite the raise, so both completed in the tree *)
  check "outer closed" 1 (node_at tree [ "outer" ]).Obs.Agg.count;
  check "inner closed" 1 (node_at tree [ "outer"; "boom" ]).Obs.Agg.count

let test_disabled_records_nothing () =
  Obs.reset ();
  Obs.disable ();
  Obs.Span.with_ "ghost" (fun () ->
      Obs.Metric.count "n" 5;
      Obs.Metric.set_max "m" 9;
      Obs.Meter.net ~rounds:1 ~messages:2 ~total_bits:3 ~max_edge_bits:4);
  let tree = Obs.snapshot_tree () in
  check "no completions" 0 tree.Obs.Agg.count;
  checkb "no children" true (Obs.Agg.SMap.is_empty tree.Obs.Agg.children);
  checkb "no sums" true (Obs.Agg.SMap.is_empty tree.Obs.Agg.sums)

let test_hist_buckets () =
  let (), tree =
    recording (fun () ->
        Obs.Span.with_ "h" (fun () ->
            List.iter (Obs.Metric.hist "sz") [ 1; 2; 3; 5; 900 ]))
  in
  let h = node_at tree [ "h" ] in
  (* power-of-two buckets: 1 -> p2_00, 2 -> p2_01, 3 -> p2_02, 5 -> p2_03,
     900 -> p2_10 (2^10 = 1024 is the first power >= 900) *)
  check "bucket 0" 1 (sum_of h "sz.p2_00");
  check "bucket 1" 1 (sum_of h "sz.p2_01");
  check "bucket 2" 1 (sum_of h "sz.p2_02");
  check "bucket 3" 1 (sum_of h "sz.p2_03");
  check "bucket 10" 1 (sum_of h "sz.p2_10")

(* ------------------------------------------------------------------ *)
(* JSON codec                                                           *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let open Obs.Json in
  let v =
    Obj
      [
        ("s", Str "a \"quoted\"\nline\\path");
        ("i", Int (-42));
        ("f", Float 1.5);
        ("b", Bool true);
        ("nl", Null);
        ("l", List [ Int 0; Str ""; Obj []; List [] ]);
      ]
  in
  checkb "compact round trip" true (of_string (to_string v) = v);
  checkb "pretty round trip" true (of_string (to_string_pretty v) = v);
  (match of_string "{ bad" with
  | exception Parse_error _ -> ()
  | _ -> Alcotest.fail "parse error not raised");
  match member "i" v with
  | Some (Int i) when i = -42 -> ()
  | _ -> Alcotest.fail "member lookup failed"

(* ------------------------------------------------------------------ *)
(* Meter and export                                                     *)
(* ------------------------------------------------------------------ *)

let test_meter_accumulates () =
  let (), tree =
    recording (fun () ->
        Obs.Span.with_ "net" (fun () ->
            Obs.Meter.net ~rounds:3 ~messages:10 ~total_bits:80
              ~max_edge_bits:16;
            Obs.Meter.net ~rounds:2 ~messages:4 ~total_bits:32
              ~max_edge_bits:24))
  in
  let n = node_at tree [ "net" ] in
  check "runs" 2 (sum_of n Obs.Meter.k_runs);
  check "rounds summed" 5 (sum_of n Obs.Meter.k_rounds);
  check "messages summed" 14 (sum_of n Obs.Meter.k_messages);
  check "bits summed" 112 (sum_of n Obs.Meter.k_bits);
  check "edge bits maxed" 24 (max_of n Obs.Meter.k_max_edge_bits)

let test_profile_shape () =
  let (), tree =
    recording (fun () ->
        Obs.Span.with_ "a" (fun () -> Obs.Metric.incr "x"))
  in
  let p = Obs.Export.profile_json ~meta:[ ("jobs", Obs.Json.Int 1) ] tree in
  (match Obs.Json.member "schema" p with
  | Some (Obs.Json.Str s) -> checks "schema name" Obs.Export.schema_name s
  | _ -> Alcotest.fail "schema missing");
  (match Obs.Json.member "version" p with
  | Some (Obs.Json.Int v) -> check "schema version" Obs.Export.schema_version v
  | _ -> Alcotest.fail "version missing");
  (match Obs.Json.member "deterministic" p with
  | Some det ->
      checkb "deterministic section round-trips" true
        (Obs.Json.of_string (Obs.Json.to_string det) = det)
  | None -> Alcotest.fail "deterministic missing");
  match Obs.Json.member "volatile" p with
  | Some (Obs.Json.Obj fields) ->
      checkb "meta merged into volatile" true (List.mem_assoc "jobs" fields)
  | _ -> Alcotest.fail "volatile missing"

let test_trace_events () =
  let (_, events) =
    (Obs.reset ();
     Obs.enable ();
     Obs.Span.with_ "t" (fun () -> Obs.Span.with_ "u" (fun () -> ()));
     let s = Obs.snapshot () in
     Obs.disable ();
     s)
  in
  check "two slices" 2 (List.length events);
  match Obs.Trace.to_json events with
  | Obs.Json.Obj fields ->
      (match List.assoc_opt "traceEvents" fields with
      | Some (Obs.Json.List l) -> check "two trace events" 2 (List.length l)
      | _ -> Alcotest.fail "traceEvents missing")
  | _ -> Alcotest.fail "trace not an object"

(* ------------------------------------------------------------------ *)
(* Cross-jobs parity property                                           *)
(* ------------------------------------------------------------------ *)

let graph_gen =
  let open QCheck.Gen in
  oneof
    [
      (int_range 2 40 >>= fun n ->
       int_range 0 1000 >>= fun seed ->
       float_range 0.05 0.35 >>= fun p ->
       return
         ( Printf.sprintf "er(%d,%.2f,%d)" n p seed,
           Graph_fixtures.erdos_renyi n p ~seed ));
      (int_range 2 6 >>= fun r ->
       int_range 2 6 >>= fun c ->
       return (Printf.sprintf "grid(%d,%d)" r c, Sparse_graph.Generators.grid r c));
      (int_range 4 40 >>= fun n ->
       int_range 0 1000 >>= fun seed ->
       return
         ( Printf.sprintf "apollonian(%d,%d)" n seed,
           Sparse_graph.Generators.random_apollonian n ~seed ));
    ]

let graph_arb = QCheck.make ~print:(fun (name, _) -> name) graph_gen

let pool4 = lazy (Parallel.Pool.create ~jobs:4 ())

(* the deterministic profile of one instrumented workload *)
let profile_of pool g =
  let _, tree =
    recording (fun () ->
        Obs.Span.with_ "workload" (fun () ->
            let d = Spectral.Expander_decomposition.decompose ~pool g ~epsilon:0.3 in
            ignore (Core.Pipeline.prepare ~mode:Core.Pipeline.Charged ~pool g ~epsilon:0.3 ~seed:7);
            d))
  in
  Obs.Json.to_string (Obs.Export.deterministic_section tree)

let parity =
  QCheck.Test.make ~name:"deterministic profile: jobs 1 = jobs 4" ~count:25
    graph_arb (fun (_, g) ->
      let s1 = profile_of Parallel.Pool.sequential g in
      let s4 = profile_of (Lazy.force pool4) g in
      String.equal s1 s4)

let rerun_stability =
  QCheck.Test.make ~name:"deterministic profile: run = rerun" ~count:15
    graph_arb (fun (_, g) ->
      let p = Lazy.force pool4 in
      String.equal (profile_of p g) (profile_of p g))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "obs"
    [
      ( "spans",
        [
          tc "span tree aggregation" test_span_tree;
          tc "exception-safe spans" test_exception_safe_span;
          tc "disabled mode records nothing" test_disabled_records_nothing;
          tc "histogram buckets" test_hist_buckets;
        ] );
      ("json", [ tc "round trip and errors" test_json_roundtrip ]);
      ( "export",
        [
          tc "meter accumulates" test_meter_accumulates;
          tc "profile shape" test_profile_shape;
          tc "trace events" test_trace_events;
        ] );
      ("parity", [ qt parity; qt rerun_stability ]);
    ]
