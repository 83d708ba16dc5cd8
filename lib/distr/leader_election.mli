(** Per-cluster leader election by maximum intra-cluster degree — the
    procedure in the proof of Theorem 2.6.

    Every vertex floods the best [(deg_Gi(u), ID(u))] pair it has seen over
    intra-cluster edges. After [t] rounds, where [t] bounds the cluster
    diameter, all vertices of a cluster agree on the maximum-degree vertex
    (ties broken by larger id), which becomes the leader [v_i*]. Messages
    are two ids wide. *)

type result = {
  leader_of : int array;    (** vertex -> elected leader of its cluster *)
  leader_deg : int array;   (** vertex -> intra-cluster degree of the leader *)
  stats : Congest.Network.stats;
}

(** [run view ~rounds] executes the election for [rounds] rounds in CONGEST
    mode. Use [rounds >= diameter(G[V_i])] for correctness (Theorem 2.6 uses
    [O(phi^-1 log n)]). *)
val run : Cluster_view.t -> rounds:int -> result

(** Retry-hardened variant for the fault model of {!Congest.Faults}:
    candidate gossip goes through the {!Reliable} ack/retry/backoff
    transport (a dropped announcement retransmits until acked), and the
    self-believed leader floods a per-round heartbeat that doubles as
    gossip. A vertex that stops hearing its current leader's heartbeat
    for [patience] rounds (use a bound comfortably above the cluster
    diameter) declares it dead, never re-adopts it, and
    re-elects — gossip re-converges on the best live candidate. Runs in
    CONGEST with a [16 log n]-bit budget (heartbeat + retry framing). *)
val run_reliable :
  ?faults:Congest.Faults.t ->
  patience:int ->
  Cluster_view.t -> rounds:int -> result

(** [check view result] verifies that within every cluster all vertices
    agree on a leader, the leader is a member, and it attains the maximum
    intra-cluster degree. Returns [true] on success. *)
val check : Cluster_view.t -> result -> bool
