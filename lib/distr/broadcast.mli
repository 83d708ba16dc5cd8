(** Cluster-wide broadcast from each cluster's leader under faults.

    The leader's value (one word) is flooded over intra-cluster edges;
    after [rounds >= diameter(G[V_i])] plus retry slack every member has
    received it. This is the "broadcast the result over the cluster" step
    of the framework (Section 1.2), hardened for {!Congest.Faults}. On a
    fault-free network the step costs exactly one leader-rooted
    {!Bfs_tree.run}, which floods the same one word per edge. *)

type result = {
  received : int array;  (** value received, or [-1] if none arrived *)
  stats : Congest.Network.stats;
}

(** [run_reliable ?faults view ~sources ~rounds]: [sources.(v) = Some x]
    makes [v] originate value [x >= 0]. Informed vertices offer their
    value to each intra-cluster neighbor through the {!Reliable}
    ack/retry/backoff transport, so the flood completes under the fault
    model of {!Congest.Faults} (message drops and duplication; crashed
    vertices stay uninformed). Needs a [rounds] budget with slack over the
    diameter: each lost hop costs one backoff interval. Runs in CONGEST
    with a [16 log n]-bit budget (the retry framing costs a constant
    factor over {!Bfs_tree.run}'s one word). *)
val run_reliable :
  ?faults:Congest.Faults.t ->
  Cluster_view.t -> sources:int option array -> rounds:int -> result

(** Every vertex in a cluster with a (unique) source must receive the
    source's value. *)
val check : Cluster_view.t -> result -> sources:int option array -> bool
