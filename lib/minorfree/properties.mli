(** Minor-closed graph properties, packaged for the property-testing
    application (Section 3.4).

    Every property here is minor-closed and closed under taking disjoint
    union, the two hypotheses of Theorem 1.4. [forbidden_clique] is the
    paper's parameter [s]: the smallest [s] with [K_s] not in [P]; the
    framework then treats the network as (assumed) [K_s]-minor-free. *)

type t = {
  name : string;
  holds : Sparse_graph.Graph.t -> bool;
  forbidden_clique : int;  (** smallest s with K_s not in P *)
}

(** Acyclic graphs; s = 3. *)
val forest : t

(** Disjoint unions of paths (acyclic, max degree <= 2); s = 3. *)
val linear_forest : t

(** Treewidth at most 2 (series-parallel); s = 4. *)
val series_parallel : t

(** Outerplanar graphs; s = 4. *)
val outerplanar : t

(** Planar graphs; s = 5. *)
val planar : t

(** All packaged properties. *)
val all : t list

(** [far_from ~epsilon g p] is a {e one-sided} farness certificate used by
    the experiments: it holds when every graph obtained from [g] by
    removing/adding at most [epsilon * m] edges still violates [p], as
    witnessed by [ceil(epsilon * m) + 1] edge-disjoint violations. Only a
    sufficient condition is checked: [true] means [g] is epsilon-far; the
    check is exact for [forest] (counts independent cycles) and
    conservative otherwise (returns [false] when unsure). *)
val far_from : epsilon:float -> Sparse_graph.Graph.t -> t -> bool
