(** The reusable witness hierarchy behind expander routing.

    [build] turns one {!Spectral.Expander_decomposition.t} into a
    two-level routing structure: a {e leaf witness} per cluster (the
    cut-matching game's embedded matchings as shortcut edges, used as
    destination entries, and BFS trees over the intra-cluster edges: the
    first rooted at the member of maximum intra-cluster degree, ties
    broken toward the smallest id — unlike the election's larger-id rule,
    which costs about 11% of grid congestion — and, while some member
    lies at least 32 hops from every root so far, up to 8 trees, the
    next rooted at the member farthest from the roots)
    and an {e internal witness} per recursion-tree node (inter-cluster
    edges bucketed as portal edges per ordered child pair, plus the
    child-connectivity graph). Clusters whose decomposition retained no
    matchings rebuild their witness by playing a fresh cut-matching game
    (with [Flow.Cut_matching.run ~adaptive:true] budgets) on the induced
    subgraph — the reuse-vs-rebuild axis that route-bench measures.

    [route] then plans one demand as a log of legs: descend the
    recursion tree along the common prefix of the endpoint clusters'
    addresses, cross one portal edge per hop of a child sequence at the
    divergence node, and solve intra-cluster legs by an LCA walk of the
    leaf tree [t] minimising [depth_t x + depth_t y] (under
    [Least_loaded], the runner-up within 1.5x when its entry edge into
    [y] is lighter), logging each climb or descent of several steps
    along one heavy path of the tree as one run leg, and a diversion's
    shortcut entry as one bundle leg that stands for its embedded real
    path.

    Every piece of state a serving stream mutates — portal cursors,
    destination-entry probes, scratch buffers, the fallback and hop
    counters — lives in a {!router}, not in the hierarchy, so a worker
    pool can route concurrently with one router per task over one shared
    hierarchy and fold the cursor advances back deterministically
    ({!sync_router} / {!merge_router}). Planning is deterministic: fixed
    adjacency orders, cursors advance in demand order, rebuild games
    seeded via [Pool.derive_seed]. *)

(** The planner's output buffer, reused across demands: one planned
    route as a log of {e legs} in hop order, with a running hop count.
    A leg is one of
    - a single hop (edge id, vertex reached) for a direct intra edge, a
      portal or a fallback BFS step;
    - a reference to a witness bundle — a matching shortcut's embedded
      real path, its edge-id array and the direction it is walked in —
      for a diversion's entry into the destination;
    - a heavy-path run of a leaf tree — a contiguous range of the tree's
      flat walk arrays, one (vertex reached, edge id) pair per hop — for
      a climb or descent of several tree steps along one heavy path.
    Consumers work per leg: {!charge} walks each bundle's or run's
    stored edge ids, and only {!vec_to_array} expands the legs into a
    vertex path, one blit per run. *)
type vec

val vec_create : unit -> vec

(** Length in edges of the route in the vec: the sum of its legs' hops. *)
val vec_hops : vec -> int

(** The route's vertex path, source first, destination last,
    consecutive entries joined by real edges; an exact-size array, in
    which each forward bundle is one blit. *)
val vec_to_array : vec -> int array

(** [charge cong out w] adds [w] to [cong.(e)] for every edge [e] the
    route in [out] crosses, once per crossing. Reads the edge ids the
    planner took from the witness structures, so it never searches the
    graph for an edge. *)
val charge : int array -> vec -> int -> unit

(** How serving picks among parallel witness edges. [Round_robin]
    rotates a cursor per portal bucket. [Least_loaded] is
    power-of-two-choices over the live per-edge congestion array: probe
    the cursor position and a second position half a rotation ahead,
    take the lighter (ties to the smaller edge id); intra-cluster legs
    in a leaf with several trees take the runner-up tree when its depth
    sum is within 1.5x of the best and its up edge into the destination
    is strictly lighter, and additionally divert their final descent
    into the destination to the
    cheaper of two rotating witness entries when it is strictly lighter
    than the natural tree edge, probing only when the natural entry's
    load is above the router's gate (see {!sync_router}). Both are
    deterministic in demand order. *)
type policy = Round_robin | Least_loaded

type t

(** Per-stream mutable serving state (cursors, the diversion gate,
    scratch, memo caches, counters). Routers over the same hierarchy are
    independent: one per pool task is the intended use. *)
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

(** Zero every cursor and counter and the gate (batch-start state). *)
val reset_router : t -> router -> unit

(** [sync_router t ~gate ~src ~dst] makes [dst] resume from [src]'s
    cursor positions with zeroed advance deltas and counters. [Least_loaded]
    routes on [dst] then probe destination entries only when the natural
    entry's load is above [gate]; a fresh or reset router has gate 0, so
    it skips only cold entries. *)
val sync_router : t -> gate:int -> src:router -> dst:router -> unit

(** [merge_router t ~src ~dst] folds [src]'s advance deltas and
    fallbacks into [dst]. Merging every task router of an epoch in task
    order is jobs-invariant: the deltas only depend on the demands each
    task routed. *)
val merge_router : t -> src:router -> dst:router -> unit

(** Legs that had to leave the witness structures and fall back to a
    global BFS, since the router's last reset/sync. *)
val router_fallbacks : router -> int

(** Legs logged for the routes a router delivered since its last
    reset/sync (see {!vec}): a measure of the planner's per-route work,
    next to {!router_hops}, the routes' length. *)
val router_legs : router -> int

(** Hops of the routes a router delivered since its last reset/sync, by
    the kind of leg they lie on: a direct intra-cluster edge, a matching
    shortcut's expansion, a portal edge, or a global-BFS fallback step.
    The four sum to the delivered routes' total length. *)
type hops = { direct : int; shortcut : int; portal : int; fallback : int }

val router_hops : router -> hops

(** Destination-entry diversion calls of a router since its last
    reset/sync: those that probed entries, those the gate skipped (the
    natural entry's load at most the gate), and those that diverted (a
    subset of the probed). *)
type diversion = { probed : int; gated : int; diverted : int }

val router_diversion : router -> diversion

(** [route ~policy ~cong t rt out src dst] clears [out] and logs into
    it the legs of a walk from [src] to [dst] over real edges of the
    graph, and adds its hops to [rt]'s {!router_hops}. [cong] is the
    live per-edge load that [Least_loaded] selection reads
    ([Round_robin] ignores it); entries past its end read as zero load.
    Returns [false] iff the endpoints are disconnected (then [out] holds
    a partial prefix and must be discarded, and no hop is counted). *)
val route : policy:policy -> cong:int array -> t -> router -> vec ->
  int -> int -> bool

type info = {
  clusters : int;
  shortcuts : int;      (** matching shortcut edges across all leaves *)
  rebuilt_leaves : int; (** leaves that played a fresh game *)
  reused_leaves : int;  (** leaves routed from retained matchings *)
  max_leaf_depth : int; (** deepest member over every tree of every leaf *)
  tree_height : int;    (** recursion-tree height *)
}

val info : t -> info

(** [iter_bundles t f] calls [f path eids rep] for every matching
    shortcut of every leaf witness, once per direction: the embedded real
    path, the edge ids the decomposition (or the rebuild game) carried
    for it ([eids.(q)] joins [path.(q)] and [path.(q+1)]), and the
    representative edge id that breaks ties. *)
val iter_bundles : t -> (int array -> int array -> int -> unit) -> unit

(** [iter_tree_edges t f] calls [f ~tree v p e] for every reached
    non-root member [v] of every tree of every leaf: tree [tree] of [v]'s
    leaf (tree 0 is rooted at the leader) hangs [v] under [p] by the
    intra-cluster edge [e]. *)
val iter_tree_edges : t -> (tree:int -> int -> int -> int -> unit) -> unit
