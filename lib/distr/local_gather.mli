(** LOCAL-model topology gathering: the baseline the paper's framework
    replaces.

    In the LOCAL model (Section 1), messages are unbounded, so each cluster
    leader can learn its cluster's topology by a BFS-tree convergecast in
    O(diameter) rounds: leaves send their incident edges, internal vertices
    forward the union. This is exactly the "brute-force information
    gathering" of the low-diameter-decomposition approach
    [Czygrinow et al., Ghaffari-Kuhn-Maus] that confines those algorithms to
    LOCAL — the convergecast root message carries Theta(|E_i| log n) bits.
    Experiment E11 contrasts its measured round count and peak message size
    with the CONGEST random-walk gathering of Lemma 2.4. *)

type result = {
  edges_at_leader : (int * (int * int) list) list;
  rounds : int;           (** rounds used *)
  max_message_bits : int; (** peak bits on one edge in one round — the
                              LOCAL-model cost the paper eliminates *)
  stats : Congest.Network.stats;
}

(** [run view ~leader_of ~rounds_budget] gathers every cluster's topology at
    its leader with unbounded messages. [rounds_budget] must be at least
    2 * cluster diameter + 3. {!Gather.complete} checks the result's
    [edges_at_leader]. *)
val run :
  Cluster_view.t -> leader_of:int array -> rounds_budget:int -> result
