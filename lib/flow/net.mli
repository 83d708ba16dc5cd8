(** Residual flow network over an undirected graph.

    Edge [e = (u, v)] (normalized [u < v]) becomes the twin arc pair
    [2e : u -> v] and [2e + 1 : v -> u], each with the edge's capacity;
    pushing along an arc frees its twin, so flow in opposite directions
    cancels and the per-edge net flow always satisfies [|f_e| <= c_e].
    Arcs are grouped by tail in CSR rows aligned with the graph's sorted
    adjacency, so iteration order is deterministic. *)

type t = {
  graph : Sparse_graph.Graph.t;
  n : int;
  m : int;
  arc_head : int array;  (** arc id -> head vertex *)
  cap : int array;       (** residual capacity, mutated by the solvers *)
  cap0 : int array;      (** initial capacity *)
  first : int array;     (** CSR offsets of [arcs] by tail vertex *)
  arcs : int array;      (** arc ids grouped by tail, neighbor-sorted *)
}

(** [of_graph ~capacity g] builds the residual network; [capacity e]
    is undirected edge [e]'s capacity.
    @raise Invalid_argument on a negative capacity. *)
val of_graph : capacity:(int -> int) -> Sparse_graph.Graph.t -> t

(** Restore all residual capacities to their initial values. *)
val reset : t -> unit

(** [twin a] is the reverse arc of [a] ([a lxor 1]). *)
val twin : int -> int

(** [arc_flow net a] is the non-negative flow along arc [a] (zero when the
    net flow runs along the twin). *)
val arc_flow : t -> int -> int

(** [divergence net v] is the total net flow leaving [v]: zero at interior
    vertices of a feasible flow, positive at sources, negative at sinks. *)
val divergence : t -> int -> int

(** Structural feasibility: every residual capacity is within
    [0 .. cap0 + cap0(twin)]. *)
val feasible : t -> bool
