(** The dune library map: which modules exist in the project, which
    library (dune [(name ...)]) each belongs to, and how qualified
    references like [Sparse_graph.Graph.degree] or [Parallel.Pool.map]
    resolve to project modules. *)

type entry = { path : string; module_name : string; library : string }

type t

(** [build ~libraries sources] indexes [sources]. [libraries] maps a
    directory (as it appears in source paths, e.g. ["lib/graph"]) to the
    dune library name (e.g. ["sparse_graph"]); directories without an
    entry fall back to the directory basename. *)
val build : libraries:(string * string) list -> Source.t list -> t

val find_module : t -> string -> entry list
(** All entries with the given module name (several libraries may define
    the same module basename). *)

val is_wrapper : t -> string -> string option
(** [is_wrapper t "Parallel"] is [Some "parallel"] when some library's
    wrapper module is named [Parallel]. *)

(** [resolve t ~current_module comps] maps a flattened identifier path to
    a project-level value name ["Module.value"]:
    - [["helper"]] resolves into [current_module];
    - the first component naming a project module wins, the following
      lowercase component is the value (handles both [Graph.degree] and
      [Sparse_graph.Graph.degree]);
    - a leading library-wrapper component restricts the module lookup to
      that library;
    - module components naming a [module X = struct ... end] inside a
      file module give ["Module.X.value"] ([Parallel.Pool.Team.create] is
      ["Pool.Team.create"]); inside that file the short [Team.create]
      resolves the same way, shadowing any project module named [Team].
    Returns [None] for identifiers outside the project (stdlib, locals). *)
val resolve : t -> current_module:string -> string list -> string option
