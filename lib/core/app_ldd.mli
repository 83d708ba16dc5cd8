(** Theorem 1.5: low-diameter decomposition with D = O(1/epsilon) on
    H-minor-free networks (Section 3.5).

    Run the framework with [eps~ = epsilon / 2]; each leader locally
    refines its gathered cluster with a sequential minor-free LDD at
    [eps~ = epsilon / 2] (KPR band chopping, falling back on deterministic
    region growing if the random chop overshoots the local budget). The
    final cut is at most eps~|E| + eps~|E| = epsilon |E|. *)

type result = {
  partition : Decomp.Partition.t;
  max_diameter : int;
  cut_fraction : float;
  pipeline : Pipeline.t;
}

(** [run ?mode g ~epsilon ~seed]. The KPR refinement runs 2 chopping
    levels, one per excluded-minor level for the planar-like families
    used in the experiments. *)
val run :
  ?mode:Pipeline.mode -> Sparse_graph.Graph.t -> epsilon:float ->
  seed:int -> result
