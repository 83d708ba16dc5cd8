(** Graph generators for the families the paper targets (planar,
    bounded-treewidth, bounded-genus, H-minor-free) and contrast families
    (hypercubes, random regular graphs, 3D grids) that are not minor-free.

    All randomized generators are deterministic given [seed]. *)

(** {1 Deterministic families} *)

val path : int -> Graph.t
val cycle : int -> Graph.t
val complete : int -> Graph.t
val complete_bipartite : int -> int -> Graph.t

(** [star k] is the k-star of Section 3.2: a center (vertex 0) joined to [k]
    leaves. *)
val star : int -> Graph.t

(** [double_star k] is the k-double-star of Section 3.2: vertices 0 and 1
    are the hubs; vertices [2 .. k+1] are each adjacent to both hubs. *)
val double_star : int -> Graph.t

(** [grid r c] is the r-by-c planar grid; vertex [(i, j)] is [i * c + j]. *)
val grid : int -> int -> Graph.t

(** [torus r c] is the grid with wraparound (genus 1). *)
val torus : int -> int -> Graph.t

(** [hypercube d] is the d-dimensional hypercube on [2^d] vertices (contrast
    family: conductance Theta(1/d) after decomposition, Section 2). *)
val hypercube : int -> Graph.t

(** [barbell k len] joins two k-cliques by a path with [len] internal
    vertices: the canonical low-conductance graph. *)
val barbell : int -> int -> Graph.t

(** {1 Randomized families} *)

(** Uniform random tree via a random Pruefer sequence. *)
val random_tree : int -> seed:int -> Graph.t

(** [erdos_renyi n p ~seed] includes each pair independently with
    probability [p]. *)
val erdos_renyi : int -> float -> seed:int -> Graph.t

(** [random_regular n d ~seed] samples a d-regular simple graph by the
    configuration model with restarts.
    @raise Invalid_argument if [n * d] is odd or [d >= n]. *)
val random_regular : int -> int -> seed:int -> Graph.t

(** [random_k_tree n k ~seed] grows a random k-tree: start from a
    (k+1)-clique and repeatedly attach a new vertex to a random existing
    k-clique. Treewidth exactly [k] (for n > k). *)
val random_k_tree : int -> int -> seed:int -> Graph.t

(** [random_apollonian n ~seed] grows a random Apollonian network: a maximal
    planar graph (planar 3-tree) built by repeatedly inserting a vertex into
    a random triangular face. Requires [n >= 3]. *)
val random_apollonian : int -> seed:int -> Graph.t

(** [random_maximal_outerplanar n ~seed] triangulates a random n-gon:
    maximal outerplanar, treewidth 2. Requires [n >= 3]. *)
val random_maximal_outerplanar : int -> seed:int -> Graph.t

(** [random_planar n p ~seed] subsamples the edges of a random Apollonian
    network, keeping each inner edge with probability [p] (outer triangle
    kept); planar but not maximal, with pendant and low-degree vertices. *)
val random_planar : int -> float -> seed:int -> Graph.t

(** [blob_chain ~blobs ~blob_size ~seed] chains [blobs] random Apollonian
    networks of [blob_size] vertices each, consecutive blobs joined by a
    single bridge edge: planar, with conductance Theta(1 / blob_size), so
    expander decompositions split it at the bridges. Requires
    [blob_size >= 3] and [blobs >= 1]. *)
val blob_chain : blobs:int -> blob_size:int -> seed:int -> Graph.t

(** {1 Modifiers} *)

(** [plant_k5s g count ~seed] overlays [count] K5s on disjoint random
    5-vertex sets (adding the missing edges), destroying planarity; used to
    make graphs epsilon-far from minor-closed properties.
    @raise Invalid_argument if [5 * count > Graph.n g]. *)
val plant_k5s : Graph.t -> int -> seed:int -> Graph.t

(** [add_random_edges g count ~seed] adds [count] uniformly random missing
    edges. *)
val add_random_edges : Graph.t -> int -> seed:int -> Graph.t

(** [attach_stars g ~stars ~leaves ~seed] picks [stars] random vertices and
    pendants [leaves] new degree-1 vertices onto each; exercises the 2-star
    preprocessing of Section 3.2. *)
val attach_stars : Graph.t -> stars:int -> leaves:int -> seed:int -> Graph.t

(** [attach_double_stars g ~hubs ~spokes ~seed] picks [hubs] random edges
    (u, v) and adds [spokes] new degree-2 vertices adjacent to both u and v;
    exercises the 3-double-star preprocessing. *)
val attach_double_stars :
  Graph.t -> hubs:int -> spokes:int -> seed:int -> Graph.t

(** Randomly permute vertex ids (defeats generator-order artifacts). *)
val shuffle : Graph.t -> seed:int -> Graph.t

(** [random_sign_labels g ~frac_pos ~seed] draws a +/- label per edge
    ([true] = positive) for correlation clustering. *)
val random_sign_labels : Graph.t -> frac_pos:float -> seed:int -> bool array

(** [planted_sign_labels g labels ~noise ~seed] labels intra-community edges
    positive and inter-community edges negative, then flips each label with
    probability [noise]; [labels.(v)] is [v]'s community. *)
val planted_sign_labels :
  Graph.t -> int array -> noise:float -> seed:int -> bool array
