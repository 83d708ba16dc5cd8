(** Theorem 1.3: (1 - epsilon)-approximate agreement-maximization
    correlation clustering (Section 3.3).

    Decompose with [eps' = epsilon / 2], let each leader solve its cluster
    optimally (exact subset DP up to the size cap, heuristic above), and
    take the union of the per-cluster clusterings with disjoint cluster
    ids. Inter-cluster edges are implicitly "cut", which is where the
    epsilon/2 * |E| <= epsilon * gamma(G) slack goes (gamma >= |E|/2). *)

type result = {
  clustering : int array;
  score : int;
  pipeline : Pipeline.t;
}

val run :
  ?mode:Pipeline.mode -> Sparse_graph.Graph.t ->
  labels:bool array -> epsilon:float -> seed:int -> result

(** gamma(G) >= |E| / 2 (the trivial clustering bound, used by E4). *)
val trivial_bound : Sparse_graph.Graph.t -> int
