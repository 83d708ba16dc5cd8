(** Value-level definition/call graph across the project. Nodes are
    module-level [let]-bound values keyed by ["Module.value"] (values
    inside nested modules are keyed ["Module.Sub.value"] and additionally
    answer to the short ["Module.value"] form, which is what an
    unqualified reference inside the submodule resolves to); edges go
    from a definition to every project value its body references
    (resolved through {!Project.resolve}, so cross-module, submodule and
    library-wrapper references are followed). *)

type def = {
  qname : string;  (** "Module.value" *)
  module_name : string;
  name : string;
  loc : Location.t;
  mutable_kind : string option;
      (** [Some "Hashtbl.create"], [Some "ref"], ... when the binding is
          toplevel mutable state rather than a function/constant *)
  params : (Asttypes.arg_label * string option) list;
  body : Parsetree.expression;
  refs : string list;  (** resolved qnames referenced by [body], deduped *)
}

type t

val build : Project.t -> (Source.t * Parsetree.structure) list -> t

val find : t -> string -> def option
val defs : t -> def list

(** Transitive closure over [refs], seeds included; sorted. A name that
    {!find} resolves is listed under its definition's canonical [qname],
    so an alias like ["Pool.run_block"] comes back as
    ["Pool.Team.run_block"]. *)
val reachable : t -> string list -> string list

(** The subset of [reachable] that is toplevel mutable state. *)
val reachable_mutable : t -> string list -> def list
