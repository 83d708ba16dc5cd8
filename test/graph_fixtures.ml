(* Graph builders that only tests use: small named families and the
   minor operations (union, contraction, subdivision) that turn one test
   input into another. *)

open Sparse_graph

let complete_bipartite a b =
  let edges = ref [] in
  for u = 0 to a - 1 do
    for v = 0 to b - 1 do
      edges := (u, a + v) :: !edges
    done
  done;
  Graph.of_edges (a + b) !edges

(* the k-star of Section 3.2: a center (vertex 0) joined to [k] leaves *)
let star k = Graph.of_edges (k + 1) (List.init k (fun i -> (0, i + 1)))

(* the k-double-star of Section 3.2: vertices 0 and 1 are the hubs;
   vertices [2 .. k+1] are each adjacent to both hubs *)
let double_star k =
  let spokes =
    List.concat_map (fun i -> [ (0, i + 2); (1, i + 2) ]) (List.init k Fun.id)
  in
  Graph.of_edges (k + 2) spokes

(* the r-by-c grid with wraparound (genus 1) *)
let torus r c =
  if r < 3 || c < 3 then invalid_arg "Graph_fixtures.torus: need r, c >= 3";
  let idx i j = (i * c) + j in
  let edges = ref [] in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      edges := (idx i j, idx i ((j + 1) mod c)) :: !edges;
      edges := (idx i j, idx ((i + 1) mod r) j) :: !edges
    done
  done;
  Graph.of_edges (r * c) !edges

(* each pair independently with probability [p] *)
let erdos_renyi n p ~seed =
  let st = Random.State.make [| seed; 23 |] in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float st 1. < p then edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges n !edges

(* [b] placed after [a]: vertex [v] of [b] becomes [Graph.n a + v] *)
let disjoint_union a b =
  let na = Graph.n a in
  let edges =
    Graph.fold_edges a (fun acc _ u v -> (u, v) :: acc) []
    |> Graph.fold_edges b (fun acc _ u v -> (u + na, v + na) :: acc)
  in
  Graph.of_edges (na + Graph.n b) edges

(* merges the vertices with equal labels (labels cover [0 .. k-1]);
   parallel edges collapse and self-loops vanish *)
let contract g labels k =
  let edges =
    Graph.fold_edges g
      (fun acc _ u v ->
        let lu = labels.(u) and lv = labels.(v) in
        if lu = lv then acc else (lu, lv) :: acc)
      []
  in
  Graph.of_edges k edges

(* contracts the listed edge ids; contracted vertices are the components
   of those edges, numbered by smallest member. Returns the minor and the
   original -> contracted vertex labels. *)
let contract_edges g es =
  let labels, k =
    Traversal.components
      (Graph.of_edges (Graph.n g) (List.map (Graph.endpoints g) es))
  in
  (contract g labels k, labels)

(* replaces edge [e] by a path with [k] new internal vertices, numbered
   [Graph.n g ..] *)
let subdivide g e k =
  let u, v = Graph.endpoints g e in
  let n = Graph.n g in
  let others =
    Graph.fold_edges g
      (fun acc e' a b -> if e' = e then acc else (a, b) :: acc)
      []
  in
  let path =
    if k = 0 then [ (u, v) ]
    else begin
      let mid = List.init (k - 1) (fun i -> (n + i, n + i + 1)) in
      ((u, n) :: mid) @ [ (n + k - 1, v) ]
    end
  in
  Graph.of_edges (n + k) (path @ others)
