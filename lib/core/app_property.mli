(** Theorem 1.4: distributed property testing of minor-closed,
    disjoint-union-closed properties (Section 3.4).

    The tester runs the framework assuming the network is K_s-minor-free
    (s = the property's smallest forbidden clique). Each leader checks its
    gathered cluster topology against the property; a cluster also rejects
    when the Lemma 2.3 high-degree condition
    deg_Gi(leader) at least 0.5 * phi^2 * |E_i| fails — the signature of a
    non-H-minor-free input. One-sided: a graph with the property is always
    accepted; an epsilon-far graph has a rejecting cluster because removing
    the <= epsilon|E| inter-cluster edges leaves a disjoint union of
    clusters, and the property is closed under disjoint union. *)

type verdict = {
  accepted : bool;               (** all vertices output Accept *)
  rejecting_clusters : int list; (** leaders of rejecting clusters *)
  degree_condition_failures : int;
      (** clusters rejected by the Lemma 2.3 check *)
  diameter_marks : int option;
      (** Simulated mode only: vertices marked [*] by the Section 2.3
          distributed diameter check (0 on a successful clustering) *)
  pipeline : Pipeline.t;
}

(** [run ?mode g property ~epsilon ~seed]. The explicit constant in the
    Lemma 2.3 degree condition is [c = 0.5]. *)
val run :
  ?mode:Pipeline.mode -> Sparse_graph.Graph.t -> Minorfree.Properties.t ->
  epsilon:float -> seed:int -> verdict
