(** A distributed expander decomposition running on the CONGEST simulator —
    the constructive counterpart of Theorem 2.1 at this repository's scale.

    The full Chang–Saranurak construction is out of scope (DESIGN.md,
    substitution 1); this module implements a genuinely distributed
    recursive spectral partitioning whose every communication step runs on
    the simulator within the O(log n)-bit budget:

    Each level processes all current clusters in parallel in one phased
    CONGEST execution, with the schedule derived from the round number:
    + BFS from each cluster leader (B rounds, B = depth budget);
    + T distributed power iterations for the cluster's Fiedler vector —
      one neighbor exchange each, then a convergecast/broadcast over the
      BFS tree (2B + 2 rounds) for the deflation and normalization sums;
    + a threshold search over C candidate sweep levels of the spectral
      embedding and C of the BFS-depth embedding (each candidate costs one
      aggregation block), the distributed stand-ins for the centralized
      sweep and BFS cuts;
    + the leader broadcasts the best cut; the cluster splits if its
      conductance is below tau = eps / (2 log2(2m)).

    Levels repeat until no cluster splits. The only centralized glue is
    the relabeling between levels and the separation of vertices the BFS
    could not reach (documented; it exchanges no information the vertices
    lack). Total simulated rounds are reported — experiment E12 compares
    them against the Theorem 2.1 charge and the decomposition quality
    against the centralized oracle. *)

type t = {
  labels : int array;
  k : int;
  inter_edges : int list;
  epsilon : float;
  tau : float;
  levels : int;                 (** levels executed *)
  total_rounds : int;           (** simulated CONGEST rounds, all levels *)
  total_messages : int;
  max_edge_bits : int;          (** peak per-edge bits in any round *)
}

(** [decompose g ~epsilon] runs at most 40 levels. At each level, B is
    the measured maximum cluster diameter (at least 1), T is
    [min 500 (40 + 2 * largest cluster size)] power iterations, and
    C = 16 candidates per embedding; level [i]'s protocol is seeded with
    [77 * i].
    @raise Invalid_argument unless [0 < epsilon < 1]. *)
val decompose : Sparse_graph.Graph.t -> epsilon:float -> t

(** [verify g t] — inter-cluster budget and measured minimum cluster
    conductance: {!Spectral.Expander_decomposition.verify} with
    [~power_iters:200 ~seed:1], on [t] viewed
    as a decomposition whose clusters carry no witness. *)
val verify : Sparse_graph.Graph.t -> t -> bool * float
