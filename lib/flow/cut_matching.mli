(** The cut-matching game: certify a cluster as a near-expander or find a
    sparse cut.

    Each round, the cut player sorts the vertices by a random projection
    vector (seeded via [Parallel.Pool.derive_seed], so the game is a pure
    function of [(g, tau, seed)]) and proposes the balanced
    bisection; the matching player routes a perfect matching across it
    with per-edge capacity [ceil(1 / tau)] and push-relabel height
    bounded by [ceil(log2 n / tau)]. Routed matchings average the
    projection vectors (a potential argument: the variance halves along
    matched pairs); a failed routing yields a level cut. Before any flow
    runs, the projection order itself is swept — a conductance below
    [tau] settles the round for free.

    The budgets are constants: at most [4 + ceil(2 log2 n)] rounds, two
    projection vectors, and acceptance once the projection variance falls
    to [1e-3] of its start (or the rounds run out with every matching
    routed). *)

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
  edge_paths : int array array list;
      (** aligned with [embeddings]: [edge_paths.(r).(i).(q)] is the id of
          the edge joining [embeddings.(r).(i).(q)] and
          [embeddings.(r).(i).(q+1)], read off the flow's arcs *)
  congestion : int;
  max_path_length : int;
  potential : float;  (** final / initial projection variance *)
}

(** [original_matchings mapping w] lists each of [w]'s matchings with its
    embedded paths and their edge ids (newest first), every vertex mapped
    through [mapping.to_orig] and every edge through
    [mapping.edge_to_orig] — the game played on an induced cluster, read
    back in the parent graph's ids. The translation is done in place: the
    result shares [w]'s arrays, which read in parent ids afterwards. *)
val original_matchings :
  Sparse_graph.Graph_ops.mapping -> witness ->
  ((int * int) array * int array array * int array array) list

type cut = {
  side : bool array;
  conductance : float;
  via : string;  (** ["projection"], ["flow"], or ["projection-fallback"] *)
}

type verdict = Expander of witness | Cut of cut

type stats = { rounds_played : int; flow_calls : int }

(** [run g ~tau ~seed] plays the game on a connected cluster at the
    budgets above. Clusters with [n <= 3], no edges, or [tau <= 0] are
    accepted with a trivial witness. *)
val run :
  Sparse_graph.Graph.t -> tau:float -> seed:int -> verdict * stats
