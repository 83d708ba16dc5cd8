(** Agreement-maximization correlation clustering (Section 3.3).

    Edges carry +/- labels ([true] = positive). A clustering is a vertex
    labelling; its score is the number of intra-cluster positive edges plus
    inter-cluster negative edges. The exact solver is the leader's local
    computation (subset DP, O(3^n)); heuristics cover larger inputs. *)

type labelling = bool array (* per edge id: true = positive *)

(** [score g labels clustering] evaluates a clustering (vertex -> cluster
    id). *)
val score : Sparse_graph.Graph.t -> labelling -> int array -> int

(** [trivial g labels] is the paper's gamma(G) >= |E| / 2 witness: the
    better of all-singletons and everything-in-one-cluster. *)
val trivial : Sparse_graph.Graph.t -> labelling -> int array

(** [exact g labels] computes an optimal clustering by subset DP.
    @raise Invalid_argument if [Graph.n g > 16]. *)
val exact : Sparse_graph.Graph.t -> labelling -> int array

(** [exact_score g labels] is the optimal score. Same limit. *)
val exact_score : Sparse_graph.Graph.t -> labelling -> int

(** [pivot g labels ~seed] is the randomized pivot heuristic: repeatedly
    pick an unclustered pivot and cluster it with its unclustered positive
    neighbors. *)
val pivot : Sparse_graph.Graph.t -> labelling -> seed:int -> int array

(** [local_improve g labels clustering ~passes] greedily moves single
    vertices between (neighboring or fresh) clusters while the score
    improves. *)
val local_improve :
  Sparse_graph.Graph.t -> labelling -> int array -> passes:int -> int array

(** [solve g labels ~seed] is the leader's solver: {!exact} when feasible,
    otherwise the best of {!trivial} and locally-improved {!pivot}. *)
val solve : Sparse_graph.Graph.t -> labelling -> seed:int -> int array
