(** The reusable witness hierarchy behind expander routing.

    [build] turns one {!Spectral.Expander_decomposition.t} into a
    two-level routing structure: a {e leaf witness} per cluster (a BFS
    tree over intra-cluster edges plus the cut-matching game's embedded
    matchings as shortcut edges, rooted at the member of maximum
    intra-cluster degree, ties broken toward the smallest id — unlike the
    election's larger-id rule, which costs about 11% of grid congestion)
    and an {e internal witness} per recursion-tree node (inter-cluster
    edges bucketed as portal edges per ordered child pair, plus the
    child-connectivity graph). Clusters whose decomposition retained no
    matchings rebuild their witness by playing a fresh cut-matching game
    (with [Flow.Cut_matching.run ~adaptive:true] budgets) on the induced
    subgraph — the reuse-vs-rebuild axis that route-bench measures.

    [route] then plans one demand as a concrete vertex path: descend the
    recursion tree along the common prefix of the endpoint clusters'
    addresses, cross one portal edge per hop of a child sequence at the
    divergence node, and solve intra-cluster legs by an LCA walk of the
    leaf's BFS tree, expanding shortcuts to their embedded real paths.

    Every piece of state a serving stream mutates — portal cursors,
    destination-entry probes, scratch buffers, the fallback counter —
    lives in a {!router}, not in the hierarchy, so a worker pool can
    route concurrently with one router per task over one shared
    hierarchy and fold the cursor advances back deterministically
    ({!sync_router} / {!merge_router}). Planning is deterministic: fixed
    adjacency orders, cursors advance in demand order, rebuild games
    seeded via [Pool.derive_seed]. *)

(** Growable int vector used as the planner's path accumulator, so a
    serving loop can reuse one buffer across millions of demands.
    [buf.(0 .. len-1)] is the vertex path. After {!route}, for
    [1 <= i < len], [ebuf.(i)] is the id of the edge joining
    [buf.(i-1)] and [buf.(i)]: the planner writes it from the witness
    structure it read the hop out of, so a caller charges per-edge load
    without searching for the edge. [ebuf.(0)] is unspecified. *)
type vec = { mutable buf : int array; mutable ebuf : int array; mutable len : int }

val vec_create : unit -> vec
val vec_push : vec -> int -> unit
val vec_to_array : vec -> int array

(** How serving picks among parallel witness edges. [Round_robin]
    rotates a cursor per portal bucket. [Least_loaded] is
    power-of-two-choices over the live per-edge congestion array: probe
    the cursor position and a second position half a rotation ahead,
    take the lighter (ties to the smaller edge id); intra-cluster legs
    additionally divert their final descent into the destination to a
    lighter witness entry when the natural tree edge is hot. Both are
    deterministic in demand order. *)
type policy = Round_robin | Least_loaded

type t

(** Per-stream mutable serving state (cursors, scratch, memo caches,
    fallback counter). Routers over the same hierarchy are independent:
    one per pool task is the intended use. *)
type router

(** [build ?reuse ?seed ?pool g decomp] preprocesses the decomposition
    into a witness hierarchy. [reuse] (default [true]) retains the
    embedded matchings the decomposition engines recorded;
    [~reuse:false] forces every large-enough cluster to replay the
    cut-matching game. Leaf builds (including rebuild games) fan out
    over [pool] (default sequential); the result is identical for every
    pool size.
    @raise Invalid_argument on an empty graph or mismatched labels. *)
val build : ?reuse:bool -> ?seed:int -> ?pool:Parallel.Pool.t ->
  Sparse_graph.Graph.t -> Spectral.Expander_decomposition.t -> t

val make_router : t -> router

(** Zero every cursor and counter (batch-start state). *)
val reset_router : t -> router -> unit

(** [sync_router t ~src ~dst] makes [dst] resume from [src]'s cursor
    positions with zeroed advance deltas and fallback count. *)
val sync_router : t -> src:router -> dst:router -> unit

(** [merge_router t ~src ~dst] folds [src]'s advance deltas and
    fallbacks into [dst]. Merging every task router of an epoch in task
    order is jobs-invariant: the deltas only depend on the demands each
    task routed. *)
val merge_router : t -> src:router -> dst:router -> unit

(** Legs that had to leave the witness structures and fall back to a
    global BFS, since the router's last reset/sync. *)
val router_fallbacks : router -> int

(** [route ?policy ?cong t rt out src dst] clears [out] and fills it
    with a full vertex path, [src] first, [dst] last, consecutive
    entries real edges of the graph. [cong] is the live per-edge load
    that [Least_loaded] (default [Round_robin]) selection reads; absent
    or short arrays read as zero load. Returns [false] iff the endpoints
    are disconnected (then [out] holds a partial prefix and must be
    discarded). *)
val route : ?policy:policy -> ?cong:int array -> t -> router -> vec ->
  int -> int -> bool

type info = {
  clusters : int;
  shortcuts : int;      (** matching shortcut edges across all leaves *)
  rebuilt_leaves : int; (** leaves that played a fresh game *)
  reused_leaves : int;  (** leaves routed from retained matchings *)
  max_leaf_depth : int; (** deepest witness-tree member over all leaves *)
  tree_height : int;    (** recursion-tree height *)
}

val info : t -> info
