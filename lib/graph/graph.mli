(** Immutable sparse graphs in compressed-sparse-row form.

    Vertices are integers [0 .. n-1]. Edges are undirected, simple (no
    self-loops, no parallel edges) and carry stable integer identifiers
    [0 .. m-1]; edge [e]'s endpoints satisfy [fst (endpoints g e) < snd
    (endpoints g e)]. Adjacency lists are sorted by neighbor id, which makes
    membership tests logarithmic. *)

type t

(** {1 Construction} *)

(** [of_edges n edges] builds a graph on [n] vertices from an edge list.
    Self-loops are dropped and duplicate edges (in either orientation) are
    collapsed. Edge ids are assigned in lexicographic order of the normalized
    (min, max) endpoint pairs.
    @raise Invalid_argument if an endpoint is outside [0 .. n-1]. *)
val of_edges : int -> (int * int) list -> t

(** [of_edge_array n edges] is [of_edges] on an array. *)
val of_edge_array : int -> (int * int) array -> t

(** The empty graph on [n] isolated vertices. *)
val empty : int -> t

(** {1 Basic accessors} *)

(** Number of vertices. *)
val n : t -> int

(** Number of edges. *)
val m : t -> int

(** [degree g v] is the number of neighbors of [v]. *)
val degree : t -> int -> int

(** Maximum degree over all vertices; 0 on the empty graph. *)
val max_degree : t -> int

(** A vertex of maximum degree (smallest id among ties).
    @raise Invalid_argument on a graph with no vertices. *)
val max_degree_vertex : t -> int

(** [endpoints g e] are edge [e]'s endpoints [(u, v)] with [u < v]. *)
val endpoints : t -> int -> int * int

(** [mem_edge g u v] tests adjacency in O(log deg). *)
val mem_edge : t -> int -> int -> bool

(** [find_edge g u v] is the id of edge [{u, v}].
    @raise Not_found if absent. *)
val find_edge : t -> int -> int -> int

(** [neighbor_at g v i] is the [i]-th neighbor of [v] in increasing neighbor
    order, in O(1) by direct CSR row indexing. Indices run over
    [0 .. degree g v - 1].
    @raise Invalid_argument if [v] or [i] is out of range. *)
val neighbor_at : t -> int -> int -> int

(** {1 Iteration} *)

(** [iter_neighbors g v f] applies [f] to each neighbor of [v] in increasing
    order. *)
val iter_neighbors : t -> int -> (int -> unit) -> unit

(** [iter_incident g v f] applies [f neighbor edge_id] to each incidence of
    [v]. *)
val iter_incident : t -> int -> (int -> int -> unit) -> unit

(** [fold_neighbors g v f init] folds over neighbors of [v]. *)
val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

(** Neighbors of [v] as a sorted list. *)
val neighbors : t -> int -> int list

(** [iter_edges g f] applies [f e u v] to every edge, [u < v], in edge-id
    order. *)
val iter_edges : t -> (int -> int -> int -> unit) -> unit

(** [fold_edges g f init] folds [f acc e u v] over all edges. *)
val fold_edges : t -> ('a -> int -> int -> int -> 'a) -> 'a -> 'a

(** All edges as an array of endpoint pairs, indexed by edge id. *)
val edges : t -> (int * int) array

(** {1 Derived quantities} *)

(** Sum of degrees of the given vertex set (each vertex counted once). *)
val volume : t -> int list -> int

(** [edge_density g] is [m / n] as a float; 0 on the empty graph. *)
val edge_density : t -> float

(** Verify internal CSR invariants (symmetry, sortedness, edge-id
    consistency); intended for tests.
    @raise Failure describing the first violated invariant. *)
val check_invariants : t -> unit
