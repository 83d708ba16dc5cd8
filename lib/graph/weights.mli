(** Integer edge weights, stored per edge id.

    The paper assumes positive integer weights with maximum value [W]
    (Section 1.1); this module enforces positivity. *)

type t

(** [of_array g a] wraps an explicit weight array ([a.(e)] is edge [e]'s
    weight).
    @raise Invalid_argument on length mismatch or non-positive entry. *)
val of_array : Graph.t -> int array -> t

(** [random g ~max_w ~seed] draws weights uniformly in [1 .. max_w]. *)
val random : Graph.t -> max_w:int -> seed:int -> t

(** Weight of edge [e]. *)
val get : t -> int -> int

(** Maximum edge weight [W]; [0] if there are no edges. *)
val max_weight : t -> int

(** [restrict w mapping] carries weights to a subgraph built with
    {!Graph_ops}: new edge [e] gets the weight of
    [mapping.edge_to_orig.(e)]. *)
val restrict : t -> Graph_ops.mapping -> t
