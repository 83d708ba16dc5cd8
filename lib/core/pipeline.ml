open Sparse_graph

type mode = Simulated | Charged

type engine = Spectral_engine | Cut_matching_engine

let engine_of_string = function
  | "spectral" -> Some Spectral_engine
  | "cutmatching" | "cut-matching" | "cm" -> Some Cut_matching_engine
  | _ -> None

let engine_name = function
  | Spectral_engine -> "spectral"
  | Cut_matching_engine -> "cutmatching"

type cluster = {
  leader : int;
  members : int list;
  sub : Graph.t;
  mapping : Graph_ops.mapping;
}

type report = {
  epsilon : float;
  phi : float;
  k : int;
  inter_edges : int;
  inter_fraction : float;
  charged_construction_rounds : int;
  diameter_bound : int;
  election_stats : Congest.Network.stats option;
  orientation_stats : Congest.Network.stats option;
  routing_stats : Congest.Network.stats option;
  simulated_rounds : int;
}

type t = {
  graph : Graph.t;
  decomposition : Spectral.Expander_decomposition.t;
  view : Distr.Cluster_view.t;
  leader_of : int array;
  clusters : cluster array;
  report : report;
}

let construction_charge ~n ~epsilon =
  let logn = log (float_of_int (max 2 n)) /. log 2. in
  int_of_float (ceil ((logn ** 3.) /. (epsilon *. epsilon)))

let construction_charge_deterministic ~n ~epsilon =
  let logn = log (float_of_int (max 4 n)) /. log 2. in
  let loglogn = log logn /. log 2. in
  int_of_float
    (ceil ((2. ** sqrt (logn *. loglogn)) /. (epsilon *. epsilon)))

(* central leader choice, matching the distributed election's rule: max
   intra-cluster degree, ties to the larger id *)
let central_leaders (view : Distr.Cluster_view.t) =
  let g = view.graph in
  let n = Graph.n g in
  let best = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    let l = view.labels.(v) in
    let d = Distr.Cluster_view.intra_degree view v in
    match Hashtbl.find_opt best l with
    | Some (bd, bv) when (bd, bv) >= (d, v) -> ()
    | _ -> Hashtbl.replace best l (d, v)
  done;
  Array.init n (fun v -> snd (Hashtbl.find best view.labels.(v)))

let build_clusters geometry leader_of =
  Array.map
    (fun (vs, sub, mapping) ->
      let leader = leader_of.(List.hd vs) in
      { leader; members = vs; sub; mapping })
    geometry

let prepare ?(mode = Simulated) ?(engine = Spectral_engine)
    ?(pool = Parallel.Pool.sequential) g ~epsilon ~seed =
  Obs.Span.with_ "pipeline.prepare" @@ fun () ->
  let n = Graph.n g in
  let decomposition =
    match engine with
    | Spectral_engine -> Spectral.Expander_decomposition.decompose ~pool g ~epsilon
    | Cut_matching_engine -> fst (Flow.Decomp_engine.decompose ~pool g ~epsilon)
  in
  let view = Distr.Cluster_view.of_labels g decomposition.labels in
  (* geometry is built once and shared between the diameter bound and the
     cluster records *)
  let geometry =
    Obs.Span.with_ "pipeline.geometry" (fun () ->
        Graph_ops.clusters ~pool g decomposition.labels decomposition.k)
  in
  (* diameter bound b for flood phases: max strong diameter over clusters *)
  let b =
    Obs.Span.with_ "pipeline.diameter" (fun () ->
        max 1 (Graph_ops.max_cluster_diameter ~pool geometry))
  in
  let charged = construction_charge ~n ~epsilon in
  let inter = List.length decomposition.inter_edges in
  if Obs.enabled () then begin
    Obs.Metric.count "pipeline.clusters" decomposition.k;
    Obs.Metric.count "pipeline.inter_edges" inter;
    Obs.Metric.set_max "pipeline.diameter_bound" b;
    Array.iter
      (fun (vs, _, _) -> Obs.Metric.hist "pipeline.cluster_size" (List.length vs))
      geometry
  end;
  let base_report =
    {
      epsilon;
      phi = decomposition.phi;
      k = decomposition.k;
      inter_edges = inter;
      inter_fraction =
        (if Graph.m g = 0 then 0.
         else float_of_int inter /. float_of_int (Graph.m g));
      charged_construction_rounds = charged;
      diameter_bound = b;
      election_stats = None;
      orientation_stats = None;
      routing_stats = None;
      simulated_rounds = 0;
    }
  in
  match mode with
  | Charged ->
      let leader_of = central_leaders view in
      let clusters = build_clusters geometry leader_of in
      { graph = g; decomposition; view; leader_of; clusters;
        report = base_report }
  | Simulated ->
      let election =
        Obs.Span.with_ "pipeline.election" (fun () ->
            Distr.Leader_election.run view ~rounds:b)
      in
      if not (Distr.Leader_election.check view election) then
        failwith "Pipeline.prepare: leader election failed";
      let leader_of = election.leader_of in
      let density = max 1. (Graph.edge_density g) in
      (* gathering with doubling walk budgets until complete *)
      let rec gather_with budget attempts =
        let r =
          Distr.Gather.run view ~leader_of ~density ~walk_len:budget
            ~seed:(seed + attempts)
            ~max_rounds:(budget * 40)
        in
        if Distr.Gather.complete view ~leader_of r.edges_at_leader then r
        else if attempts >= 8 then
          failwith "Pipeline.prepare: gathering did not complete"
        else gather_with (budget * 2) (attempts + 1)
      in
      let logn = int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.)) in
      let initial_budget = max 64 (4 * b * b * logn) in
      let gather =
        Obs.Span.with_ "pipeline.gather" (fun () -> gather_with initial_budget 0)
      in
      let clusters = build_clusters geometry leader_of in
      let simulated_rounds =
        election.stats.Congest.Network.rounds
        + gather.orientation_stats.Congest.Network.rounds
        + gather.routing_stats.Congest.Network.last_traffic_round
      in
      {
        graph = g;
        decomposition;
        view;
        leader_of;
        clusters;
        report =
          {
            base_report with
            election_stats = Some election.stats;
            orientation_stats = Some gather.orientation_stats;
            routing_stats = Some gather.routing_stats;
            simulated_rounds;
          };
      }

let solve_locally t f = Array.map f t.clusters

(* the expander-routing serving layer over the prepared decomposition;
   both engines feed it the same shared record, so witness reuse kicks
   in exactly where matchings were retained *)
let routing_service ?reuse ?seed ?pool t =
  Route.Service.preprocess ?reuse ?seed ?pool t.graph t.decomposition
