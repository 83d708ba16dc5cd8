open Sparse_graph

type t = {
  labels : int array;
  k : int;
  inter_edges : int list;
}

let of_labels g raw =
  let n = Graph.n g in
  if Array.length raw <> n then
    invalid_arg "Partition.of_labels: length mismatch";
  let remap = Hashtbl.create 16 in
  let next = ref 0 in
  let labels =
    Array.map
      (fun l ->
        match Hashtbl.find_opt remap l with
        | Some x -> x
        | None ->
            let x = !next in
            incr next;
            Hashtbl.add remap l x;
            x)
      raw
  in
  { labels; k = !next; inter_edges = Graph_ops.inter_edges g labels }

let cut_fraction g t =
  let m = Graph.m g in
  if m = 0 then 0.
  else float_of_int (List.length t.inter_edges) /. float_of_int m

let max_cluster_diameter g t =
  Graph_ops.max_cluster_diameter (Graph_ops.clusters g t.labels t.k)

(* lint: allow U001 test oracle: every vertex has an in-range cluster label *)
let is_valid g t =
  Array.length t.labels = Graph.n g
  && Array.for_all (fun l -> l >= 0 && l < t.k) t.labels
