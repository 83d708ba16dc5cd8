open Sparse_graph

type result = {
  partition : Decomp.Partition.t;
  max_diameter : int;
  cut_fraction : float;
  pipeline : Pipeline.t;
}

let run ?(mode = Pipeline.Simulated) g ~epsilon ~seed =
  let eps_half = min 0.999 (max 1e-6 (epsilon /. 2.)) in
  let pipeline = Pipeline.prepare ~mode g ~epsilon:eps_half ~seed in
  let n = Graph.n g in
  let labels = Array.make n (-1) in
  let offset = ref 0 in
  Array.iter
    (fun (cl : Pipeline.cluster) ->
      (* the leader refines its cluster with a sequential minor-free LDD;
         budget eps/2 of the cluster's own edges *)
      let local =
        if Graph.m cl.sub = 0 then
          Decomp.Partition.of_labels cl.sub
            (Array.make (Graph.n cl.sub) 0)
        else begin
          let kpr = Decomp.Kpr.ldd cl.sub ~epsilon:eps_half ~levels:2 ~seed in
          if Decomp.Partition.cut_fraction cl.sub kpr <= eps_half +. 1e-9 then
            kpr
          else Decomp.Ldd.region_growing cl.sub ~epsilon:eps_half
        end
      in
      Array.iteri
        (fun v l -> labels.(cl.mapping.to_orig.(v)) <- !offset + l)
        local.labels;
      offset := !offset + local.k)
    pipeline.clusters;
  let partition = Decomp.Partition.of_labels g labels in
  {
    partition;
    max_diameter = Decomp.Partition.max_cluster_diameter g partition;
    cut_fraction = Decomp.Partition.cut_fraction g partition;
    pipeline;
  }
