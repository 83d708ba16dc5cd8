(** The analysis driver: load sources, run the rule set, fold in
    suppressions and the baseline, render reports. *)

type status = Fresh | Suppressed | Baselined

type report = {
  files_scanned : int;
  results : (Finding.t * status) list;  (** sorted by location *)
  baseline_size : int;
  stale : Finding.t list;
      (** baseline entries that no unsuppressed finding matches, one
          pseudo-finding each at the entry's rule and location *)
}

(** Recursively collect [dirs] (relative to [root]) for [*.ml] files and
    dune library names. Returns sources (paths relative to [root], sorted)
    and the (dir -> library-name) map read from dune files. Directories
    that do not exist are skipped; directory entries starting with ['.']
    or ['_'] are pruned. File reads and comment prescans fan out over
    [pool] (default: sequential); parsing stays on the calling domain
    because the compiler-libs lexer is not domain-safe. The result is
    identical at every pool size. *)
val load_tree :
  ?pool:Parallel.Pool.t ->
  root:string ->
  dirs:string list ->
  unit ->
  Source.t list * (string * string) list

(** Run [rules] (default: the full set) over the sources. Suppression
    comments and the baseline are applied here; parse failures surface as
    E000 findings. [Per_source] rules fan out over [pool] (default:
    sequential), one task per source; [Global] rules run on the calling
    domain. Findings are totally ordered by location, so the report is
    byte-identical at every pool size. *)
val analyze :
  ?pool:Parallel.Pool.t ->
  ?rules:Rule.t list ->
  ?libraries:(string * string) list ->
  ?baseline:Baseline.t ->
  Source.t list ->
  report

val fresh : report -> Finding.t list

(** Per-status counts as (fresh, suppressed, baselined). *)
val counts : report -> int * int * int

(** Human-readable listing of fresh findings and stale baseline entries
    plus a summary line. *)
val to_text : report -> string

(** Full machine-readable report (all statuses, per-rule counts). *)
val to_json : report -> string

(** 0 when no fresh findings, 1 otherwise. Stale baseline entries do not
    count here (a narrowed [--dirs] run leaves entries unmatched); the
    [@lint] gate rejects them through the report's ["stale"] count. *)
val exit_code : report -> int
