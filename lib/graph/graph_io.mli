(** Plain-text graph serialization: a simple edge-list format and DOT
    export, so generated workloads can be saved and visualized by
    downstream users. *)

(** Format: first non-comment line ["n m"], then [m] lines ["u v"] (or
    ["u v w"] with weights); ['#'] starts a comment. *)

(** [to_string ?weights g] serializes. *)
val to_string : ?weights:Weights.t -> Graph.t -> string

(** [of_string s] parses; returns the graph and the weights if every edge
    line carried one.
    @raise Failure on malformed input. *)
val of_string : string -> Graph.t * Weights.t option

(** [save g ~path] writes the unweighted {!to_string} of [g] to [path]. *)
val save : Graph.t -> path:string -> unit

(** [to_dot ~labels g] renders GraphViz DOT; [labels] maps a vertex to
    its cluster (colored). *)
val to_dot : labels:int array -> Graph.t -> string
