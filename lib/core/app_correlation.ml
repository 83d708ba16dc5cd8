open Sparse_graph

type result = {
  clustering : int array;
  score : int;
  pipeline : Pipeline.t;
}

let trivial_bound g = (Graph.m g + 1) / 2

let run ?(mode = Pipeline.Simulated) g ~labels ~epsilon ~seed =
  let eps' = min 0.999 (max 1e-6 (epsilon /. 2.)) in
  let pipeline = Pipeline.prepare ~mode g ~epsilon:eps' ~seed in
  let n = Graph.n g in
  let clustering = Array.make n (-1) in
  let offset = ref 0 in
  Array.iter
    (fun (cl : Pipeline.cluster) ->
      (* restrict the +/- labelling to the cluster's induced subgraph *)
      let sub_labels =
        Array.map (fun orig_e -> labels.(orig_e)) cl.mapping.edge_to_orig
      in
      let local = Optimize.Correlation.solve cl.sub sub_labels ~seed in
      (* renumber the local cluster ids to 0 .. used-1 before offsetting so
         ids from different framework clusters never collide *)
      let remap = Hashtbl.create 8 in
      let used = ref 0 in
      let normalized =
        Array.map
          (fun c ->
            match Hashtbl.find_opt remap c with
            | Some x -> x
            | None ->
                let x = !used in
                incr used;
                Hashtbl.add remap c x;
                x)
          local
      in
      Array.iteri
        (fun v c -> clustering.(cl.mapping.to_orig.(v)) <- !offset + c)
        normalized;
      offset := !offset + !used)
    pipeline.clusters;
  let score = Optimize.Correlation.score g labels clustering in
  { clustering; score; pipeline }
