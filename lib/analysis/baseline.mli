(** Checked-in grandfathered findings. A baseline entry matches a finding
    by (rule, file, line); matched findings are reported as "baselined"
    and do not fail the build, and an entry that matches no finding is
    reported as stale. The file format is line-oriented:

    {v
    # comment
    RULE<TAB>file<TAB>line<TAB>message (informational)
    v} *)

type t

val empty : t

val parse : string -> t

(** [load path] is [empty] when the file does not exist. *)
val load : string -> t

val mem : t -> Finding.t -> bool

(** [unmatched t findings] lists the entries, as [(rule, file, line)],
    that match none of [findings]. Such a stale entry would silently
    grandfather any later finding of the same rule on that line. *)
val unmatched : t -> Finding.t list -> (string * string * int) list

val of_findings : Finding.t list -> t

val to_string : t -> string

val size : t -> int
