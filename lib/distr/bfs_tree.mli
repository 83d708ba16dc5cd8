(** Distributed BFS tree construction inside each cluster, rooted at a
    designated vertex per cluster (typically the elected leader). Standard
    flooding: one id per message. *)

type result = {
  parent : int array;  (** parent in the BFS tree; root's parent is itself;
                           unreached vertices (no root in their cluster)
                           keep [-1] *)
  depth : int array;   (** hop distance to the root, [-1] if unreached *)
  stats : Congest.Network.stats;
}

(** [run view ~roots ~rounds] floods from every vertex [v] with
    [roots.(v) = true], along intra-cluster edges, for [rounds] rounds. *)
val run :
  Cluster_view.t -> roots:bool array -> rounds:int -> result

(** Retry-hardened variant for the fault model of {!Congest.Faults}.
    Attached vertices heartbeat their depth to all intra-cluster
    neighbors every round (the per-round refresh is the retransmission),
    vertices re-parent to any strictly better offer — converging depths
    to true BFS distances of the live subgraph — and a vertex whose
    parent stays silent for [patience] consecutive rounds (default 6)
    presumes it crashed, orphans itself, and re-roots onto the live
    tree. Needs [rounds] slack over the diameter proportional to the
    drop rate and to [patience] after a crash. *)
val run_reliable :
  ?faults:Congest.Faults.t ->
  ?patience:int ->
  Cluster_view.t -> roots:bool array -> rounds:int -> result

(** [check view result ~roots] verifies parent pointers form shortest-path
    trees: depths match a centralized BFS from the roots inside each
    cluster. *)
val check : Cluster_view.t -> result -> roots:bool array -> bool
