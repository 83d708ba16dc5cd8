(** Uniform lazy random walks and mixing time, as in Section 2 of the paper.

    The lazy walk stays put with probability 1/2 and otherwise moves to a
    uniformly random neighbor. Distributions are dense float arrays indexed
    by vertex. *)

(** [stationary g] is [pi(u) = deg(u) / vol(V)]. Requires [m > 0]. *)
val stationary : Sparse_graph.Graph.t -> float array

(** [step g p] is one lazy-walk step applied to distribution [p]:
    [p'(u) = p(u)/2 + sum_(w in N(u)) p(w) / (2 deg(w))]. Isolated vertices
    keep their mass. *)
val step : Sparse_graph.Graph.t -> float array -> float array

(** [is_mixed g p] tests the paper's mixing criterion
    [|p(u) - pi(u)| <= pi(u) / n] for all [u] in the support of the
    stationary distribution. Degree-0 vertices are excluded: their
    threshold [pi(u) / n] is 0, so any isolated vertex would report
    "never mixes" even though the lazy walk is exact there. *)
val is_mixed : Sparse_graph.Graph.t -> float array -> bool

(** [mixing_time_from g v ~max_t] is the smallest [t <= max_t] whose
    distribution from [v] satisfies {!is_mixed}, or [None]. *)
val mixing_time_from : Sparse_graph.Graph.t -> int -> max_t:int -> int option

(** [mixing_time g ~max_t] is the maximum of {!mixing_time_from} over
    start vertices in the stationary support (a walk started on a
    degree-0 vertex stays there, trivially exact for its component) —
    the paper's [tau_mix(G)] — or [None] if some vertex fails to mix
    within [max_t]. Quadratic in [n]: for tests and small graphs. *)
val mixing_time : Sparse_graph.Graph.t -> max_t:int -> int option
