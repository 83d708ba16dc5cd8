(** Batched demand serving on top of the witness {!Hierarchy}.

    [preprocess] builds the hierarchy once; [serve] then answers demand
    matrices as an in-memory planner. The batch is sharded over the
    worker pool in fixed-size epochs (2048-demand chunks, 8 chunks per
    epoch): each task routes its chunk against a private router and a
    private snapshot of the per-edge congestion array, and the
    coordinator merges congestion deltas and cursor advances back in
    task order after every epoch. Because the epoch geometry is
    constant, every demand sees the same congestion snapshot — and the
    summary is byte-identical — at every [--jobs] value.

    [serve_congest] additionally executes the same pass's planned paths
    as a CONGEST workload on the (optionally sharded) simulator via
    {!Distr.Witness_routing}, checking the simulator's deliveries
    against the planner's. *)

type demand = { src : int; dst : int; weight : int }

type t

(** [preprocess ?pool g decomp] — see {!Hierarchy.build}. [pool]
    (default sequential) parallelizes both the leaf builds and every
    subsequent serve. *)
val preprocess : ?pool:Parallel.Pool.t ->
  Sparse_graph.Graph.t -> Spectral.Expander_decomposition.t -> t

val hierarchy : t -> Hierarchy.t

(** Per-edge weighted congestion charged by the latest [serve] / [plan]
    / [serve_congest] batch (indexed by edge id). *)
val congestion : t -> int array

type summary = {
  demands : int;
  delivered : int;   (** demands the planner routed *)
  failed : int;      (** demands with disconnected endpoints *)
  fallbacks : int;   (** legs that left the witness structures *)
  rounds_p50 : int;  (** per-demand path length (edges), nearest-rank *)
  rounds_p99 : int;
  rounds_max : int;
  congestion_max : int;    (** heaviest weighted per-edge load *)
  congestion_total : int;  (** sum of weight × length over demands *)
}

(** Plan every demand under [policy] (default
    {!Hierarchy.Least_loaded}), charge congestion (reset per batch),
    summarize. *)
val serve : ?policy:Hierarchy.policy -> t -> demand array -> summary

(** Retained plans (full vertex paths, src first), [[||]] for an
    unroutable demand. Identical to the paths [serve] charges: [plan]
    runs the same serving pass (and leaves the same congestion array). *)
val plan : ?policy:Hierarchy.policy -> t -> demand array -> int array array

type congest_run = {
  planner : summary;
  routed : Distr.Witness_routing.result;
  match_planner : bool;
      (** the simulator delivered exactly the planner's routable
          demands — every token at its plan's destination, none lost *)
}

(** [serve_congest ?exec t ds ~max_rounds] routes [ds] once under
    {!Hierarchy.Least_loaded}, then ships one token per routable demand
    along the served paths on the CONGEST simulator, run under [exec] as
    in {!Distr.Witness_routing.run}. *)
val serve_congest : ?exec:Congest.Network.exec -> t -> demand array ->
  max_rounds:int -> congest_run
