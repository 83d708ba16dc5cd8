(** Deterministic token routing to the cluster leader — the working
    counterpart of Lemma 2.5 at this repository's scale.

    The paper's deterministic routing goes through the almost-maximal-flow
    machinery of Chang–Saranurak [20, Lemma D.10]; here tokens are instead
    pipelined up a BFS tree rooted at the leader, each edge forwarding at
    most [capacity = bandwidth / token-size] tokens per round. Fully
    deterministic and bandwidth-bounded; rounds are O(depth + max tokens
    through an edge / capacity). The leader's high degree (Lemma 2.3) is
    what keeps the root bottleneck small: the tokens split over
    deg(leader) incoming tree edges. Experiment E9's deterministic column
    compares this against the randomized walks of Lemma 2.4. *)

type result = {
  delivered : (int * Walk_routing.token list) list;
      (** per leader: tokens it received (same token type as
          {!Walk_routing} so the two routers are interchangeable) *)
  undelivered : int;
  stats : Congest.Network.stats;
}

(** [run view ~leader_of ~tokens_of ~max_rounds] deterministically routes
    [tokens_of v] tokens from every vertex to its cluster leader. Vertices
    whose cluster is disconnected from its leader keep their tokens
    (counted in [undelivered]). *)
val run :
  Cluster_view.t ->
  leader_of:int array ->
  tokens_of:(int -> int) ->
  max_rounds:int ->
  result

(** Fraction of tokens delivered. *)
val delivery_rate : Cluster_view.t -> tokens_of:(int -> int) -> result -> float
