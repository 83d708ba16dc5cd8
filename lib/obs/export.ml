(* Profile assembly. A profile has exactly two top-level sections:

   - "deterministic": the aggregated span tree (counts, integer counters,
     max-merged gauges) plus whole-run totals. Byte-identical across runs
     and across --jobs settings; parity tests and bin/check_profile.exe
     --compare operate on this section's canonical string.
   - "volatile": everything wall-clock or allocator derived (span ns, GC
     words, jobs, harness metadata). Excluded from comparisons.

   The split is structural rather than a naming convention so that a new
   metric cannot silently end up on the wrong side: deterministic values
   flow through Metric.count/set_max/hist, volatile ones through span
   timing. *)

let schema_name = "expander-obs-profile"

let schema_version = 1

let deterministic_section tree =
  let sums, maxes = Agg.totals tree in
  Json.Obj
    [
      ("spans", Agg.to_json tree);
      ("totals", Agg.int_map_json sums);
      ("peaks", Agg.int_map_json maxes);
    ]

let deterministic_string tree = Json.to_string (deterministic_section tree)

let profile_json ?(meta = []) tree =
  Json.Obj
    [
      ("schema", Json.Str schema_name);
      ("version", Json.Int schema_version);
      ("deterministic", deterministic_section tree);
      ( "volatile",
        Json.Obj (meta @ [ ("spans", Agg.volatile_json tree) ]) );
    ]

let to_ascii tree = Agg.to_ascii tree

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc
