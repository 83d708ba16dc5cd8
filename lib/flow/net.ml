open Sparse_graph

(* Residual flow network over an undirected graph: edge e becomes the twin
   arc pair (2e: u -> v, 2e+1: v -> u), each initially carrying the edge's
   capacity, so pushing along one arc frees its twin and flow cancellation
   is automatic. Arcs are grouped by tail in CSR rows aligned with the
   graph's (sorted) adjacency, so iteration order — and therefore every
   downstream tie-break — is a pure function of the input graph. *)

type t = {
  graph : Graph.t;
  n : int;
  m : int;
  arc_head : int array;
  cap : int array;   (* residual capacity, mutated by push/relabel *)
  cap0 : int array;  (* initial capacity (cap0.(2e) = cap0.(2e+1) = c_e) *)
  first : int array; (* CSR offsets: arcs with tail v are arcs.(first.(v)) .. *)
  arcs : int array;  (* arc ids grouped by tail, neighbor-sorted per row *)
}

let of_graph ~capacity g =
  let n = Graph.n g in
  let m = Graph.m g in
  let arc_head = Array.make (2 * m) 0 in
  let cap0 = Array.make (2 * m) 0 in
  Graph.iter_edges g (fun e u v ->
      let c = capacity e in
      if c < 0 then
        invalid_arg
          (Printf.sprintf "Flow.Net.of_graph: negative capacity %d on edge %d"
             c e);
      arc_head.(2 * e) <- v;
      arc_head.((2 * e) + 1) <- u;
      cap0.(2 * e) <- c;
      cap0.((2 * e) + 1) <- c);
  let first = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    first.(v + 1) <- first.(v) + Graph.degree g v
  done;
  let arcs = Array.make (2 * m) 0 in
  let cursor = Array.copy first in
  for v = 0 to n - 1 do
    (* the graph's rows are neighbor-sorted, so this row is too *)
    Graph.iter_incident g v (fun w e ->
        let a = if v < w then 2 * e else (2 * e) + 1 in
        arcs.(cursor.(v)) <- a;
        cursor.(v) <- cursor.(v) + 1)
  done;
  { graph = g; n; m; arc_head; cap = Array.copy cap0; cap0; first; arcs }

let reset net = Array.blit net.cap0 0 net.cap 0 (Array.length net.cap)

let twin a = a lxor 1

let arc_flow net a = Int.max 0 (net.cap0.(a) - net.cap.(a))

(* out-of-vertex imbalance: sum of net flow leaving v. Zero at interior
   vertices of a feasible flow; positive at sources, negative at sinks. *)
let divergence net v =
  let s = ref 0 in
  for i = net.first.(v) to net.first.(v + 1) - 1 do
    let a = net.arcs.(i) in
    s := !s + (net.cap0.(a) - net.cap.(a))
  done;
  !s

(* lint: allow U001 test oracle: residual capacities stay in range *)
let feasible net =
  let ok = ref true in
  Array.iteri (fun a c -> if c < 0 || c > 2 * net.cap0.(a) then ok := false)
    net.cap;
  !ok
