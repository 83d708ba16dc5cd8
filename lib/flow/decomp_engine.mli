(** Flow-based (epsilon, phi) expander decomposition.

    {!Spectral.Expander_decomposition.drive} — the one decomposition
    recursion, with its task seeding, thresholds
    ([tau = epsilon / (2 log2(2m))], [phi = tau^2 / 4]) and DFS pre-order
    labels — run with a different cluster judge: cheap cut heuristics
    ({!Cut_heuristics}) and then the cut-matching game ({!Cut_matching})
    instead of Fiedler sweeps. The result is the spectral engine's record,
    so verification and everything downstream is shared. Witness sources
    are ["trivial"] (single vertex, or a game accepted without routing),
    ["exact"] (exhaustive conductance, for clusters of at most 14
    vertices, as in the spectral engine) and ["cutmatching"] (the game's
    routed matchings, kept as the cluster's witness).
    Deterministic for every pool size. *)

type stats = {
  games : int;           (** cut-matching games played *)
  game_rounds : int;     (** rounds across all games *)
  flow_calls : int;      (** bounded push-relabel runs *)
  heuristic_cuts : int;  (** clusters split by a cheap heuristic, no game *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

(** [decompose ?pool g ~epsilon] computes the decomposition (span
    ["cm-decompose"], metrics [cm.games] and [cm.heuristic_cuts]) and the
    work statistics.
    @raise Invalid_argument unless [0 < epsilon < 1]. *)
val decompose :
  ?pool:Parallel.Pool.t -> Sparse_graph.Graph.t -> epsilon:float ->
  Spectral.Expander_decomposition.t * stats
