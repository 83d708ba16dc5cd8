(** Profile assembly: the deterministic / volatile split and the ASCII
    summary. *)

val schema_name : string
val schema_version : int

val deterministic_section : Agg.node -> Json.t
(** The parity-compared section: span tree + whole-run totals/peaks. *)

val deterministic_string : Agg.node -> string
(** Canonical compact serialization of {!deterministic_section}; equal
    strings mean equal deterministic profiles. *)

val profile_json : ?meta:(string * Json.t) list -> Agg.node -> Json.t
(** Full BENCH_profile.json document; [meta] lands in the volatile
    section (jobs, wall seconds, workload name...). *)

val to_ascii : Agg.node -> string

val write_file : string -> string -> unit
