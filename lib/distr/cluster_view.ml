open Sparse_graph

type t = {
  graph : Graph.t;
  labels : int array;
  intra : int array array;
}

(* CSR-aligned intra-cluster adjacency, built once per view: row v lists
   v's same-cluster neighbors in the graph's (ascending) neighbor order.
   Routing batches against one decomposition used to rebuild this O(n+m)
   structure on every call; now they all share the view's copy. *)
let build_intra graph (labels : int array) =
  let n = Graph.n graph in
  let counts = Array.make n 0 in
  for v = 0 to n - 1 do
    counts.(v) <-
      Graph.fold_neighbors graph v
        (fun acc w -> if labels.(w) = labels.(v) then acc + 1 else acc)
        0
  done;
  Array.init n (fun v ->
      let row = Array.make counts.(v) 0 in
      let i = ref 0 in
      Graph.fold_neighbors graph v
        (fun () w ->
          if labels.(w) = labels.(v) then begin
            row.(!i) <- w;
            incr i
          end)
        ();
      row)

let whole graph =
  let labels = Array.make (Graph.n graph) 0 in
  { graph; labels; intra = build_intra graph labels }

let of_labels graph labels =
  if Array.length labels <> Graph.n graph then
    invalid_arg "Cluster_view.of_labels: label array length mismatch";
  { graph; labels; intra = build_intra graph labels }

let intra_degree t v = Array.length t.intra.(v)

let flood t v m = Array.fold_right (fun w acc -> (w, m) :: acc) t.intra.(v) []
