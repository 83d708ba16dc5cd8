open Sparse_graph

type result = {
  mate : int array;
  size : int;
  weight : int;
  pipeline : Pipeline.t option;
}

let matching_weight g w mate =
  let total = ref 0 in
  Array.iteri
    (fun v m ->
      if m > v then total := !total + Weights.get w (Graph.find_edge g v m))
    mate;
  !total

let mcm_planar ?(mode = Pipeline.Simulated) g ~epsilon ~seed =
  let reduced = Matching.Preprocess.eliminate_fixpoint g in
  let gbar = reduced.graph in
  (* eps' = c * epsilon with the Lemma 3.1 constant c = 0.25 *)
  let eps' = min 0.999 (max 1e-6 (0.25 *. epsilon)) in
  let pipeline = Pipeline.prepare ~mode gbar ~epsilon:eps' ~seed in
  let n = Graph.n g in
  let mate = Array.make n (-1) in
  Array.iter
    (fun (cl : Pipeline.cluster) ->
      let local = Matching.Blossom.max_cardinality_matching cl.sub in
      Array.iteri
        (fun v m ->
          if m > v then begin
            (* translate: cluster -> reduced graph -> original graph *)
            let rv = cl.mapping.to_orig.(v) and rm = cl.mapping.to_orig.(m) in
            let ov = reduced.mapping.to_orig.(rv)
            and om = reduced.mapping.to_orig.(rm) in
            mate.(ov) <- om;
            mate.(om) <- ov
          end)
        local)
    pipeline.clusters;
  let size =
    Array.fold_left (fun acc m -> if m >= 0 then acc + 1 else acc) 0 mate / 2
  in
  { mate; size; weight = size; pipeline = Some pipeline }

let mwm ?(mode = Pipeline.Simulated) g w ~epsilon ~seed =
  (* clusters (and whole graphs) up to this size are solved exactly *)
  let exact_limit = 18 in
  let n = Graph.n g in
  let mate = Array.make n (-1) in
  let params = Matching.Scaling.of_epsilon epsilon in
  let thresholds = Matching.Scaling.scales ~params w in
  let eps' = min 0.999 (max 1e-6 (epsilon /. 2.)) in
  let last_pipeline = ref None in
  List.iteri
    (fun scale_idx threshold ->
      (* working subgraph: eligible heavy edges between unmatched vertices *)
      let eligible =
        Graph.fold_edges g
          (fun acc e u v ->
            if Weights.get w e >= threshold && mate.(u) = -1 && mate.(v) = -1
            then e :: acc
            else acc)
          []
      in
      if eligible <> [] then begin
        let sub_all, map_all = Graph_ops.subgraph_of_edges g (List.rev eligible) in
        (* drop isolated vertices to keep the pipeline small *)
        let live =
          List.filter
            (fun v -> Graph.degree sub_all v > 0)
            (List.init n Fun.id)
        in
        let sub, map_live = Graph_ops.induced_subgraph sub_all live in
        if Graph.m sub > 0 then begin
          let sub_w =
            Weights.of_array sub
              (Array.map
                 (fun e_sub_all -> Weights.get w map_all.edge_to_orig.(e_sub_all))
                 map_live.edge_to_orig)
          in
          let pipeline =
            Pipeline.prepare ~mode sub ~epsilon:eps'
              ~seed:(seed + (997 * scale_idx))
          in
          last_pipeline := Some pipeline;
          Array.iter
            (fun (cl : Pipeline.cluster) ->
              if Graph.m cl.sub > 0 then begin
                let cl_w = Weights.restrict sub_w cl.mapping in
                let local =
                  if Graph.n cl.sub <= exact_limit then begin
                    let _, picked =
                      Matching.Exact_small.max_weight_matching_edges cl.sub cl_w
                    in
                    let m = Array.make (Graph.n cl.sub) (-1) in
                    List.iter
                      (fun e ->
                        let u, v = Graph.endpoints cl.sub e in
                        m.(u) <- v;
                        m.(v) <- u)
                      picked;
                    m
                  end
                  else
                    Matching.Approx.local_search cl.sub cl_w ~len:params.search_len
                      ~passes:params.passes ()
                in
                Array.iteri
                  (fun v m ->
                    if m > v then begin
                      let ov =
                        map_live.to_orig.(cl.mapping.to_orig.(v))
                      and om =
                        map_live.to_orig.(cl.mapping.to_orig.(m))
                      in
                      if mate.(ov) = -1 && mate.(om) = -1 then begin
                        mate.(ov) <- om;
                        mate.(om) <- ov
                      end
                    end)
                  local
              end)
            pipeline.clusters
        end
      end)
    thresholds;
  (* final cleanup: bounded-length weight-improving augmentations on the
     whole graph (each vertex's O(1/eps)-neighborhood, as in the scaling
     algorithm's last pass) *)
  let mate =
    Matching.Approx.local_search g w ~init:mate ~len:params.search_len
      ~passes:params.passes ()
  in
  (* a graph that fits the leader's exact solver outright is one cluster:
     solve it exactly, as the model allows (unbounded local computation) *)
  let mate =
    if n <= exact_limit then begin
      let _, picked = Matching.Exact_small.max_weight_matching_edges g w in
      let exact = Array.make n (-1) in
      List.iter
        (fun e ->
          let u, v = Graph.endpoints g e in
          exact.(u) <- v;
          exact.(v) <- u)
        picked;
      if matching_weight g w exact >= matching_weight g w mate then exact
      else mate
    end
    else mate
  in
  let size =
    Array.fold_left (fun acc m -> if m >= 0 then acc + 1 else acc) 0 mate / 2
  in
  { mate; size; weight = matching_weight g w mate; pipeline = !last_pipeline }
