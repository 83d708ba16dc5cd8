open Sparse_graph

type result = {
  independent_set : int list;
  size : int;
  conflicts_removed : int;
  pipeline : Pipeline.t;
}

let run ?(mode = Pipeline.Simulated) ?(exact_limit = 120) g ~epsilon ~seed =
  let d = max 1. (Graph.edge_density g) in
  let eps' = epsilon /. ((2. *. d) +. 1.) in
  let eps' = min 0.999 (max 1e-6 eps') in
  let pipeline = Pipeline.prepare ~mode g ~epsilon:eps' ~seed in
  let per_cluster =
    Pipeline.solve_locally pipeline (fun c ->
        let local =
          if Graph.n c.sub <= exact_limit then Optimize.Mis.exact c.sub
          else Optimize.Mis.greedy c.sub
        in
        List.map (fun v -> c.mapping.to_orig.(v)) local)
  in
  let n = Graph.n g in
  let chosen = Array.make n false in
  Array.iter (List.iter (fun v -> chosen.(v) <- true)) per_cluster;
  (* resolve conflicts across inter-cluster edges: drop one endpoint (Z) *)
  let conflicts = ref 0 in
  List.iter
    (fun e ->
      let u, v = Graph.endpoints g e in
      if chosen.(u) && chosen.(v) then begin
        chosen.(u) <- false;
        incr conflicts
      end)
    pipeline.decomposition.inter_edges;
  let set = ref [] in
  for v = n - 1 downto 0 do
    if chosen.(v) then set := v :: !set
  done;
  {
    independent_set = !set;
    size = List.length !set;
    conflicts_removed = !conflicts;
    pipeline;
  }

let ratio result ~opt =
  if opt = 0 then 1. else float_of_int result.size /. float_of_int opt

type weighted_result = {
  w_independent_set : int list;
  total_weight : int;
  w_pipeline : Pipeline.t;
}

let run_weighted ?(mode = Pipeline.Simulated) ?(exact_limit = 100) g ~weights
    ~epsilon ~seed =
  let d = max 1. (Graph.edge_density g) in
  let eps' = min 0.999 (max 1e-6 (epsilon /. ((2. *. d) +. 1.))) in
  let pipeline = Pipeline.prepare ~mode g ~epsilon:eps' ~seed in
  let per_cluster =
    Pipeline.solve_locally pipeline (fun c ->
        let local_w =
          Array.map (fun orig -> weights.(orig)) c.mapping.to_orig
        in
        let local =
          if Graph.n c.sub <= exact_limit then
            Optimize.Mis.exact_weighted c.sub local_w
          else Optimize.Mis.greedy c.sub
        in
        List.map (fun v -> c.mapping.to_orig.(v)) local)
  in
  let n = Graph.n g in
  let chosen = Array.make n false in
  Array.iter (List.iter (fun v -> chosen.(v) <- true)) per_cluster;
  List.iter
    (fun e ->
      let u, v = Graph.endpoints g e in
      if chosen.(u) && chosen.(v) then begin
        (* drop the lighter endpoint (ties: the smaller id) *)
        let drop = if weights.(u) <= weights.(v) then u else v in
        chosen.(drop) <- false
      end)
    pipeline.decomposition.inter_edges;
  let set = ref [] in
  for v = n - 1 downto 0 do
    if chosen.(v) then set := v :: !set
  done;
  {
    w_independent_set = !set;
    total_weight = Optimize.Mis.weight_of weights !set;
    w_pipeline = pipeline;
  }
