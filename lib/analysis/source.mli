(** One .ml source unit: raw text, its Parsetree (when it parses), and the
    lint markers ([allow] suppressions, [hot] annotations) found in the
    text. *)

(** Comment-marker scan of a file's raw text, separated from parsing so a
    parallel loader can fan the text scans out across domains while the
    compiler-libs parser (which keeps global lexer state) stays on one. *)
type prescan = {
  suppressions : (int * string) list;
  hot_lines : int list;
}

type t = {
  path : string;  (** repo-relative path used in findings *)
  content : string;
  ast : Parsetree.structure option;
  parse_error : string option;  (** set when [ast] is [None] *)
  suppressions : (int * string) list;
      (** (line, rule id) for each [(* lint: allow RULE reason *)] comment *)
  hot_lines : int list;
      (** lines carrying a [(* lint: hot *)] marker (A001 / A002 roots) *)
}

(** Scan [content] for lint comment markers without parsing it. *)
val prescan : string -> prescan

(** Parse [content] as an implementation; never raises — parse failures are
    recorded in [parse_error]. When [prescan] is given, the marker scan is
    reused instead of recomputed. *)
val of_string : ?prescan:prescan -> path:string -> string -> t

(** The file lies under [lib/]: library code, as opposed to the bench,
    binaries and the end-to-end harness. *)
val in_lib : t -> bool

(** Capitalized module name derived from the basename, e.g.
    ["lib/graph/union_find.ml"] -> ["Union_find"]. *)
val module_name : t -> string

(** A suppression on line [l] covers findings of the same rule on line [l]
    (trailing comment) and line [l + 1] (comment on the preceding line). *)
val suppressed : t -> rule:string -> line:int -> bool

(** A [lint: hot] marker on line [l] marks a binding starting on line [l]
    (trailing comment) or line [l + 1] (comment on the preceding line). *)
val hot_marked : t -> line:int -> bool
