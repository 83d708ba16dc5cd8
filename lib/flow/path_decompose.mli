(** Decompose a routed flow into source -> sink paths.

    Every vertex with positive {!Net.divergence} originates that many
    units; each walk follows positive-flow arcs to a vertex with negative
    remaining divergence and subtracts the path's bottleneck. Flow cycles
    are cancelled in place during the walk; circulations that touch no
    source survive undisturbed (they connect no source-sink pair). The
    walk order is deterministic, so the paths are a pure function of
    the flow. *)

(** The paths, one index per path, in ascending source order (within one
    source, the last walk first). *)
type t = {
  vertices : int array array;
      (** path [i]'s walked vertex sequence, source first, sink last
          ([src <> dst], so at least two entries). Retained so callers can
          embed the path back into the host graph (expander-routing
          witnesses). *)
  edges : int array array;
      (** path [i]'s edge ids, read off the arcs: [edges.(i).(q)] joins
          [vertices.(i).(q)] and [vertices.(i).(q+1)] *)
  amounts : int array;  (** units routed along path [i] *)
  total : int;          (** total units decomposed *)
  max_length : int;     (** most arcs on one path *)
}

(** [decompose net] reads the flow currently held in [net] (which is not
    mutated) and lists its source -> sink paths.
    @raise Invalid_argument if the flow is not feasible (a walk sticks). *)
val decompose : Net.t -> t
