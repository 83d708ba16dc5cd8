(** Deterministic span/metric aggregate. All merges are commutative and
    associative and all traversals visit sorted keys, so the aggregate is
    independent of buffer registration and drain order — the foundation
    of the byte-identical-across-[--jobs] profile contract. *)

module SMap : Map.S with type key = string

type node = {
  count : int;              (** span completions at this path *)
  sums : int SMap.t;        (** deterministic additive counters *)
  maxes : int SMap.t;       (** deterministic max-merged metrics *)
  volatile : int SMap.t;    (** timing-class values (ns, GC words) —
                                excluded from deterministic exports *)
  children : node SMap.t;
}

val empty : node

val merge : node -> node -> node

val add_at : node -> string list -> node -> node
(** [add_at tree path row] merges the leaf-shaped [row] into the node at
    [path], creating intermediate nodes as needed. *)

val find_path : node -> string list -> node option

val totals : node -> int SMap.t * int SMap.t
(** Whole-tree metric totals: (summed counters, maxed metrics). *)

val int_map_json : int SMap.t -> Json.t
(** Sorted-key object of integer values. *)

val to_json : node -> Json.t
(** Deterministic form: count/metrics/max/children, sorted keys, no
    volatile values. *)

val volatile_json : node -> Json.t
(** Timing mirror of the tree: the volatile metrics only. *)

val to_ascii : node -> string
(** Indented span-tree summary for terminals. *)
