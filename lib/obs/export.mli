(** Profile assembly: the deterministic / volatile split. *)

val schema_name : string
val schema_version : int

val deterministic_section : Agg.node -> Json.t
(** The parity-compared section: span tree + whole-run totals/peaks. *)

val profile_json : ?meta:(string * Json.t) list -> Agg.node -> Json.t
(** Full BENCH_profile.json document; [meta] lands in the volatile
    section (jobs, wall seconds, workload name...). *)

val write_file : string -> string -> unit
