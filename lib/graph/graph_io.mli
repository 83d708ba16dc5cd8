(** Plain-text graph serialization: a simple edge-list format and DOT
    export, so generated workloads can be saved and visualized by
    downstream users. *)

(** Format: first non-comment line ["n m"], then [m] lines ["u v"];
    ['#'] starts a comment. *)

(** [to_string g] serializes. *)
val to_string : Graph.t -> string

(** [of_string s] parses.
    @raise Failure on malformed input, including an edge line that
    does not hold exactly two ints. *)
val of_string : string -> Graph.t

(** [save g ~path] writes the unweighted {!to_string} of [g] to [path]. *)
val save : Graph.t -> path:string -> unit

(** [to_dot ~labels g] renders GraphViz DOT; [labels] maps a vertex to
    its cluster (colored). *)
val to_dot : labels:int array -> Graph.t -> string
