(** Cut conductance and sparsity, following Section 2 of the paper.

    A cut is represented by a membership mask [side : bool array] over the
    vertices of the graph ([true] = inside S). *)

(** [volume g mask] is the sum of degrees of the vertices in S. *)
val volume : Sparse_graph.Graph.t -> bool array -> int

(** [boundary g mask] counts the edges crossing the cut, i.e. [|d(S)|]. *)
val boundary : Sparse_graph.Graph.t -> bool array -> int

(** [of_cut g mask] is [Phi(S) = |d(S)| / min(vol S, vol V\S)]; [0.] when S
    is empty or everything (matching the paper's convention). *)
val of_cut : Sparse_graph.Graph.t -> bool array -> float

(** [sparsity_of_cut g mask] is [Psi(S) = |d(S)| / min(|S|, |V\S|)]
    (Lemma 2.5); [0.] on trivial cuts. *)
val sparsity_of_cut : Sparse_graph.Graph.t -> bool array -> float

(** [exact g] is the graph conductance [Phi(G)]: the minimum of [of_cut] over
    all non-trivial cuts, by exhaustive enumeration. [0.] for graphs with
    fewer than 2 vertices.
    @raise Invalid_argument if [Graph.n g > 24] (enumeration would blow up);
    use {!Sweep_cut} bounds for larger graphs. *)
val exact : Sparse_graph.Graph.t -> float

(** [exact_cut g] additionally returns a minimizing cut mask.
    @raise Invalid_argument as {!exact}. *)
val exact_cut : Sparse_graph.Graph.t -> float * bool array

(** [mask_of_list n vs] builds a membership mask from a vertex list. *)
val mask_of_list : int -> int list -> bool array
