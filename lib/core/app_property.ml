open Sparse_graph

type verdict = {
  accepted : bool;
  rejecting_clusters : int list;
  degree_condition_failures : int;
  diameter_marks : int option;
  pipeline : Pipeline.t;
}

let run ?(mode = Pipeline.Simulated) g (property : Minorfree.Properties.t)
    ~epsilon ~seed =
  let eps' = min 0.999 (max 1e-6 epsilon) in
  let pipeline = Pipeline.prepare ~mode g ~epsilon:eps' ~seed in
  let phi = pipeline.decomposition.phi in
  let rejecting = ref [] in
  let degree_failures = ref 0 in
  Array.iter
    (fun (cl : Pipeline.cluster) ->
      let mi = Graph.m cl.sub in
      (* Lemma 2.3 condition, with explicit constant 0.5: the leader's
         degree must be large relative to phi^2 |E_i|; a failure
         certifies a non-minor-free input. Only meaningful for clusters
         with edges. *)
      let leader_sub = cl.mapping.to_sub.(cl.leader) in
      let deg_ok =
        mi = 0
        || float_of_int (Graph.degree cl.sub leader_sub)
           >= 0.5 *. phi *. phi *. float_of_int mi
      in
      if not deg_ok then begin
        incr degree_failures;
        rejecting := cl.leader :: !rejecting
      end
      else if not (property.holds cl.sub) then
        rejecting := cl.leader :: !rejecting)
    pipeline.clusters;
  (* Section 2.3 failure detection: in simulated mode, actually run the
     distributed diameter check against the clustering's diameter bound *)
  let diameter_marks =
    match mode with
    | Pipeline.Charged -> None
    | Pipeline.Simulated ->
        let r =
          Distr.Diameter_check.run pipeline.view
            ~b:(max 1 pipeline.report.diameter_bound)
        in
        Some
          (Array.fold_left (fun acc m -> if m then acc + 1 else acc) 0
             r.marked)
  in
  {
    accepted = !rejecting = [];
    rejecting_clusters = List.rev !rejecting;
    degree_condition_failures = !degree_failures;
    diameter_marks;
    pipeline;
  }
