(** Breadth-first / depth-first traversals and shortest paths. *)

(** [bfs g src] returns the array of hop distances from [src]; unreachable
    vertices get [-1]. *)
val bfs : Graph.t -> int -> int array

(** [bfs_multi g sources] returns hop distances from the nearest source;
    unreachable vertices get [-1]. *)
val bfs_multi : Graph.t -> int list -> int array

(** [bfs_layers g src] groups reachable vertices by distance: element [d] of
    the result lists the vertices at distance exactly [d], in increasing
    vertex order. *)
val bfs_layers : Graph.t -> int -> int list array

(** [components g] assigns each vertex a component label in
    [0 .. count-1] (labelled in order of smallest member) and returns
    [(labels, count)]. *)
val components : Graph.t -> int array * int

(** List of components, each a sorted vertex list, ordered by smallest
    member. *)
val component_list : Graph.t -> int list list

(** Whether the graph is connected ([true] for graphs with at most one
    vertex). *)
val is_connected : Graph.t -> bool

(** [eccentricity g v] is the maximum distance from [v] to a reachable
    vertex. *)
val eccentricity : Graph.t -> int -> int

(** The exact maximum {!eccentricity} over all vertices: on a
    disconnected graph, the largest diameter of any component (not
    necessarily the largest component's); [0] on the empty graph.
    Computed per component by eccentricity-bound pruning: each BFS
    tightens every vertex's eccentricity bounds, and the search stops once
    no vertex can exceed the largest eccentricity found. Typically a
    handful of BFS runs on sparse low-diameter graphs; the worst case is
    still one BFS per vertex, [O(n * m)]. Adds its BFS count to the
    [graph.diameter_bfs] counter of the current {!Obs} span. *)
val diameter : Graph.t -> int

(** Lower bound on the diameter by a double BFS sweep (exact on trees). *)
val diameter_double_sweep : Graph.t -> int

(** [dijkstra g weight src] computes shortest-path distances with
    non-negative per-edge weights ([weight e] for edge id [e]); unreachable
    vertices get [max_int]. *)
val dijkstra : Graph.t -> (int -> int) -> int -> int array

(** [is_acyclic g] tests whether [g] is a forest. *)
val is_acyclic : Graph.t -> bool

(** [spanning_forest g] returns the edge ids of a BFS spanning forest. *)
val spanning_forest : Graph.t -> int list
