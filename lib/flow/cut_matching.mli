(** The cut-matching game: certify a cluster as a near-expander or find a
    sparse cut.

    Each round, the cut player sorts the vertices by a random projection
    vector (seeded via [Parallel.Pool.derive_seed], so the game is a pure
    function of [(g, tau, seed, params)]) and proposes the balanced
    bisection; the matching player routes a perfect matching across it
    with per-edge capacity [ceil(cap_scale / tau)] and push-relabel
    height bounded by [ceil(height_scale * log2 n / tau)]. Routed
    matchings average the projection vectors (a potential argument: the
    variance halves along matched pairs); a failed routing yields a level
    cut. Before any flow runs, the projection order itself is swept — a
    conductance below [tau] settles the round for free. *)

type params = {
  max_rounds_const : int;
  max_rounds_log : float;   (** rounds = const + ceil(log * log2 n) *)
  flow_vectors : int;       (** projection vectors maintained in parallel *)
  cap_scale : float;        (** per-edge capacity = ceil(cap_scale / tau) *)
  height_scale : float;     (** height limit = ceil(scale * log2 n / tau) *)
  potential_drop : float;   (** declare expander when P <= drop * P0 *)
  global_relabel_period : int;
  plateau_window : int;
      (** accept as an expander after this many consecutive routed rounds
          whose relative potential drop stays below [plateau_drop];
          [0] disables the early exit *)
  plateau_drop : float;
  scale_vectors : bool;
      (** scale the projection-vector count down with cluster size
          (one per ~7 doubling levels, capped at [flow_vectors]) *)
}

val default : params

(** [default] with the adaptive budgets switched on: plateau early-exit
    after 2 stalled rounds at a 5% relative-drop threshold, and
    size-scaled projection vectors. Used by rebuild-mode witness games in
    [Route.Hierarchy]; [default] keeps the decomposition engine's
    behaviour bit-identical. *)
val adaptive : params

(** Everything needed to audit an acceptance: the routed matchings embed
    in the cluster with per-edge congestion [congestion] and path length
    at most [max_path_length]. *)
type witness = {
  rounds : int;
  matchings : (int * int) array list;  (** newest first, one per routed round *)
  embeddings : int array array list;
      (** aligned with [matchings]: [embeddings.(r).(i)] is the vertex
          sequence (src first, dst last, real edges between consecutive
          entries) along which pair [matchings.(r).(i)] embeds *)
  congestion : int;
  max_path_length : int;
  potential : float;  (** final / initial projection variance *)
}

(** [original_matchings mapping w] pairs each of [w]'s matchings with its
    embedded paths (newest first), every vertex mapped through
    [mapping.to_orig] — the game played on an induced cluster, read back
    in the parent graph's ids. The translation is done in place: the
    result shares [w]'s arrays, which read in parent ids afterwards. *)
val original_matchings :
  Sparse_graph.Graph_ops.mapping -> witness ->
  ((int * int) array * int array array) list

type cut = {
  side : bool array;
  conductance : float;
  via : string;  (** ["projection"], ["flow"], or ["projection-fallback"] *)
}

type verdict = Expander of witness | Cut of cut

type stats = { rounds_played : int; flow_calls : int }

(** [run ?params g ~tau ~seed] plays the game on a connected cluster.
    Clusters with [n <= 3], no edges, or [tau <= 0] are accepted with a
    trivial witness. *)
val run :
  ?params:params -> Sparse_graph.Graph.t -> tau:float -> seed:int ->
  verdict * stats
