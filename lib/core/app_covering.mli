(** Covering problems through the framework — measured extensions.

    Minimum dominating set is the flagship problem of the LOCAL-model line
    of work on planar networks the paper discusses in Section 1.4; minimum
    vertex cover is its packing dual. Both decompose cleanly: the union of
    per-cluster optimal solutions is feasible (each cluster dominates /
    covers itself; inter-cluster edges additionally get one endpoint each
    for vertex cover), and exceeds the optimum by at most the boundary
    terms. Unlike the paper's maximization problems, OPT here can be o(n),
    so no (1 + epsilon) guarantee is claimed — experiment E13 reports
    measured ratios. *)

type result = {
  solution : int list;
  size : int;
  pipeline : Pipeline.t;
}

(** [dominating_set ?mode g ~epsilon ~seed]: union of per-cluster minimum
    dominating sets (exact for clusters of up to 80 vertices, greedy
    above). Always returns a valid dominating set. *)
val dominating_set :
  ?mode:Pipeline.mode -> Sparse_graph.Graph.t -> epsilon:float ->
  seed:int -> result

(** [vertex_cover ?mode g ~epsilon ~seed]: union of per-cluster minimum
    vertex covers (exact for clusters of up to 200 vertices, a
    2-approximation above) plus one endpoint of every inter-cluster edge.
    Always returns a valid cover. *)
val vertex_cover :
  ?mode:Pipeline.mode -> Sparse_graph.Graph.t -> epsilon:float ->
  seed:int -> result
