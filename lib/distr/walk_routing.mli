(** Random-walk routing to the cluster leader (Lemma 2.4).

    Every vertex originates a fixed number of tokens (each one [O(log n)]
    bits). Tokens perform independent uniform lazy random walks along
    intra-cluster edges; a token is absorbed — delivered — the first time it
    reaches the cluster's leader. The lemma proves that with walk length
    [O(phi^-2 log n) * O(phi^-2 log n)] every token reaches a
    maximum-degree leader w.h.p., and that per walk step only [O(log n)]
    tokens cross each edge w.h.p., so each step costs [O(log n)] CONGEST
    rounds.

    The walk keeps to the CONGEST budget by construction: a vertex
    forwards at most [capacity] tokens per edge per round (capacity =
    bandwidth / token size); excess tokens retry on later rounds (their
    sampled step is kept, so the walk distribution is unchanged, only
    delayed). It runs on {!Token_loop}, the flat round kernel it shares
    with {!Witness_routing}, not on {!Congest.Network.run}; the test
    suite runs the same round function on the simulator, which does
    enforce the budget, and checks that both give the same result,
    statistics included. *)

type token = {
  origin : int;  (** vertex that created the token *)
  seq : int;     (** sequence number among the origin's tokens *)
}

type result = {
  delivered : (int * token list) list;
      (** per leader: tokens it absorbed, own tokens first then arrival
          order (pinned by a regression test) *)
  undelivered : int;
      (** tokens not delivered, counted against the originated total so
          that [delivered + undelivered = total] holds even when tokens
          are cut off in flight at [max_rounds]:
          [undelivered = expired + held + in-flight] *)
  expired : int;  (** tokens whose [walk_len] budget ran out *)
  held : int;     (** tokens still queued at some vertex when the run ended *)
  stats : Congest.Network.stats;
}

(** [run view ~leader_of ~tokens_of ~walk_len ~seed ~max_rounds] routes
    [tokens_of v] tokens from every vertex [v] to its cluster leader
    ([leader_of.(v)], e.g. from {!Leader_election}). A token is dropped once
    it has taken [walk_len] lazy steps without reaching the leader
    (experiment E9 sweeps this budget). Tokens in flight at [max_rounds]
    are lost: they count in [undelivered] but not in [held].

    [stats] is what {!Congest.Network.run} reports for the walk, whose
    vertices never halt: on a graph with vertices, [stats.rounds] is
    [max_rounds] and [stats.completed] is [false] even when every token
    arrived long before. The round of the last token move is
    [stats.last_traffic_round]. Traced runs count the same figures
    ([Obs.Meter.net], [Obs.Meter.active]) under the
    ["distr.walk_routing"] span.

    @raise Invalid_argument if [walk_len < 0], if some [tokens_of v] is
    negative, or if the token total times [walk_len + 1] exceeds
    [max_int] (each token travels as one int packing its id and step
    count). *)
val run :
  Cluster_view.t ->
  leader_of:int array ->
  tokens_of:(int -> int) ->
  walk_len:int ->
  seed:int ->
  max_rounds:int ->
  result

(** Fraction of tokens delivered. *)
val delivery_rate : Cluster_view.t -> tokens_of:(int -> int) -> result -> float

(** Every expected token is delivered exactly once, to the right leader. *)
val check : Cluster_view.t -> leader_of:int array -> tokens_of:(int -> int) ->
  result -> bool
