(** Graph surgery: subgraphs, vertex removal and edge addition.

    Operations that renumber vertices return a {!mapping} so callers can
    translate results back to the original graph. *)

type mapping = {
  to_sub : int array;    (** original vertex -> new vertex, or [-1] if dropped *)
  to_orig : int array;   (** new vertex -> original vertex *)
  edge_to_orig : int array;  (** new edge id -> original edge id, or [-1] *)
}

(** [induced_subgraph g vs] restricts [g] to the vertex set [vs] (duplicates
    ignored). *)
val induced_subgraph : Graph.t -> int list -> Graph.t * mapping

(** [subgraph_of_edges g es] keeps all [n] vertices but only the edges whose
    id is in [es]. The resulting mapping has identity vertex maps. *)
val subgraph_of_edges : Graph.t -> int list -> Graph.t * mapping

(** [remove_vertices g vs] deletes the vertices in [vs] and their incident
    edges. *)
val remove_vertices : Graph.t -> int list -> Graph.t * mapping

(** [add_edges g edges] returns [g] plus the listed endpoint pairs. *)
val add_edges : Graph.t -> (int * int) list -> Graph.t

(** {2 Cluster geometry}

    The one home of "vertex labels -> clusters": every consumer of a
    partition (decompositions, low-diameter decompositions, the Theorem
    2.6 pipeline, the benches) derives its inter-cluster edges, per-cluster
    subgraphs, diameter bound and component refinement here. *)

(** [inter_edges g labels] lists the ids of the edges whose endpoints
    carry different labels, in ascending id order. Any integer labels
    are accepted. *)
val inter_edges : Graph.t -> int array -> int list

(** One cluster: its vertices (ascending), the induced subgraph [G[V_i]],
    and the mapping between the two numberings. *)
type cluster = int list * Graph.t * mapping

(** [clusters ?pool g labels k] materializes cluster [l] for every label
    [l] in [0 .. k-1] (an unused label gives an empty cluster). The
    induced subgraphs are built on [pool] (default sequential); the
    result is identical for every pool size.
    @raise Invalid_argument naming the vertex and its label if a label
    lies outside [0 .. k-1], or if [labels] does not have one entry per
    vertex. *)
val clusters :
  ?pool:Parallel.Pool.t -> Graph.t -> int array -> int -> cluster array

(** [max_cluster_diameter ?pool clusters] is the largest strong diameter
    of any cluster's induced subgraph, or [max_int] if some cluster is
    disconnected; [0] when every cluster has at most one vertex. Each
    connected cluster gets one exact {!Traversal.diameter}, run on [pool]
    (default sequential). *)
val max_cluster_diameter : ?pool:Parallel.Pool.t -> cluster array -> int

(** [split_components g labels] refines [labels] so that each class is
    one connected component of the edges whose endpoints share a label.
    Classes are numbered [0 .. k-1] in the order of their smallest
    vertex; returns the new labels and [k]. Any integer labels are
    accepted. *)
val split_components : Graph.t -> int array -> int array * int
