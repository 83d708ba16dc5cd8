open Sparse_graph

type result = {
  solution : int list;
  size : int;
  pipeline : Pipeline.t;
}

let collect n per_cluster (clusters : Pipeline.cluster array) =
  let chosen = Array.make n false in
  Array.iteri
    (fun i (cl : Pipeline.cluster) ->
      List.iter
        (fun v -> chosen.(cl.mapping.to_orig.(v)) <- true)
        per_cluster.(i))
    clusters;
  chosen

let finalize chosen =
  let out = ref [] in
  for v = Array.length chosen - 1 downto 0 do
    if chosen.(v) then out := v :: !out
  done;
  !out

let dominating_set ?(mode = Pipeline.Simulated) g ~epsilon ~seed =
  let eps' = min 0.999 (max 1e-6 epsilon) in
  let pipeline = Pipeline.prepare ~mode g ~epsilon:eps' ~seed in
  let per_cluster =
    Pipeline.solve_locally pipeline (fun c ->
        if Graph.n c.sub <= 80 then Optimize.Dominating.exact c.sub
        else Optimize.Dominating.greedy c.sub)
  in
  let chosen = collect (Graph.n g) per_cluster pipeline.clusters in
  let solution = finalize chosen in
  { solution; size = List.length solution; pipeline }

let vertex_cover ?(mode = Pipeline.Simulated) g ~epsilon ~seed =
  let eps' = min 0.999 (max 1e-6 epsilon) in
  let pipeline = Pipeline.prepare ~mode g ~epsilon:eps' ~seed in
  let per_cluster =
    Pipeline.solve_locally pipeline (fun c ->
        if Graph.n c.sub <= 200 then Optimize.Vertex_cover.exact c.sub
        else Optimize.Vertex_cover.two_approx c.sub)
  in
  let chosen = collect (Graph.n g) per_cluster pipeline.clusters in
  (* inter-cluster edges: cover with the smaller-id endpoint if needed *)
  List.iter
    (fun e ->
      let u, v = Graph.endpoints g e in
      if (not chosen.(u)) && not chosen.(v) then chosen.(u) <- true)
    pipeline.decomposition.inter_edges;
  let solution = finalize chosen in
  { solution; size = List.length solution; pipeline }
