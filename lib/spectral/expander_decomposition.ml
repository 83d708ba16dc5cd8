open Sparse_graph

type cluster_witness = {
  w_path : int list;
  w_matchings : ((int * int) array * int array array * int array array) list;
  w_congestion : int;
  w_dilation : int;
  w_source : string;
}

let no_witness ~path ~source =
  { w_path = path; w_matchings = []; w_congestion = 0; w_dilation = 0;
    w_source = source }

type t = {
  labels : int array;
  k : int;
  inter_edges : int list;
  epsilon : float;
  phi : float;
  tau : float;
  witnesses : cluster_witness array;
}

(* clusters up to this size are judged, and certified, by exhaustive
   conductance; larger ones by a sweep cut after [power_iters] steps *)
let exact_limit = 14
let power_iters = 120

let threshold ~m ~epsilon =
  if m = 0 then epsilon
  else epsilon /. (2. *. (log (float_of_int (2 * m)) /. log 2.))

type verdict = Accept of cluster_witness | Cut of bool array

(* One node of the recursion task graph: a candidate cluster, identified by
   the path of child ranks from the root. Tasks on the frontier share no
   state, so each level runs on the pool; accepted clusters are sorted by
   path afterwards, which is exactly the DFS pre-order a sequential
   left-to-right recursion would label them in. *)
type task = { rev_path : int list; depth : int; vs : int list }

type outcome = Keep of cluster_witness | Drop | Split of int list list

let drive ~entry ~span ~singleton ~exact ~judge ~zero ~add ~report ~pool g
    ~epsilon =
  if not (epsilon > 0. && epsilon < 1.) then
    invalid_arg (entry ^ ": need 0 < epsilon < 1");
  Obs.Span.with_ span @@ fun () ->
  let n = Graph.n g in
  let tau = threshold ~m:(Graph.m g) ~epsilon in
  (* per-task seed from the cluster's identity (recursion depth, smallest
     member, size), never from global mutable state *)
  let task_seed ~depth ~anchor ~sub_n =
    Parallel.Pool.derive_seed 0
      ((depth * 1_000_003) lxor (anchor * 8191) lxor sub_n)
  in
  (* a side mask over the induced subgraph -> the two children, in
     original ids *)
  let split_along (mapping : Graph_ops.mapping) side =
    let left = ref [] and right = ref [] in
    for v = Array.length side - 1 downto 0 do
      if side.(v) then left := mapping.to_orig.(v) :: !left
      else right := mapping.to_orig.(v) :: !right
    done;
    Split [ !left; !right ]
  in
  let step t =
    match t.vs with
    | [] -> (Drop, zero)
    | [ _ ] -> (Keep (no_witness ~path:[] ~source:singleton), zero)
    | vs -> (
        let sub, mapping = Graph_ops.induced_subgraph g vs in
        (* a cut may disconnect the subgraph; re-split by components *)
        match Traversal.component_list sub with
        | [ _ ] ->
            let sub_n = Graph.n sub in
            let verdict, spent =
              if sub_n <= exact_limit then
                let phi_exact, side = Conductance.exact_cut sub in
                if phi_exact >= tau then
                  (Accept (no_witness ~path:[] ~source:exact), zero)
                else (Cut side, zero)
              else
                judge sub mapping ~tau
                  ~seed:(task_seed ~depth:t.depth ~anchor:(List.hd vs) ~sub_n)
            in
            ( (match verdict with
              | Accept w -> Keep w
              | Cut side -> split_along mapping side),
              spent )
        | many ->
            ( Split
                (List.map
                   (fun comp -> List.map (fun v -> mapping.to_orig.(v)) comp)
                   many),
              zero ))
  in
  let accepted = ref [] in
  let work = ref zero in
  let frontier =
    ref
      (List.mapi
         (fun i vs -> { rev_path = [ i ]; depth = 0; vs })
         (Traversal.component_list g))
  in
  (* one observability span per recursion level: the frontier wave at
     depth d runs inside "level-d", so the trace shows the recursion's
     shape and each level's task/accept counts are measured *)
  let wave = ref 0 in
  while !frontier <> [] do
    Obs.Span.with_ (Printf.sprintf "level-%d" !wave) (fun () ->
        let tasks = Array.of_list !frontier in
        Obs.Metric.count "tasks" (Array.length tasks);
        let outcomes = Parallel.Pool.map pool step tasks in
        let next = ref [] in
        Array.iteri
          (fun i (outcome, spent) ->
            work := add !work spent;
            let t = tasks.(i) in
            match outcome with
            | Keep w ->
                Obs.Metric.incr "accepted";
                accepted := (List.rev t.rev_path, t.vs, w) :: !accepted
            | Drop -> ()
            | Split children ->
                Obs.Metric.incr "split";
                List.iteri
                  (fun j vs ->
                    next :=
                      { rev_path = j :: t.rev_path; depth = t.depth + 1; vs }
                      :: !next)
                  children)
          outcomes;
        frontier := List.rev !next);
    incr wave
  done;
  let accepted =
    List.sort
      (fun (p1, _, _) (p2, _, _) -> compare (p1 : int list) p2)
      !accepted
  in
  let labels = Array.make n (-1) in
  let next_label = ref 0 in
  List.iter
    (fun (_, vs, _) ->
      let l = !next_label in
      incr next_label;
      List.iter (fun v -> labels.(v) <- l) vs)
    accepted;
  let inter_edges = Graph_ops.inter_edges g labels in
  if Obs.enabled () then begin
    Obs.Metric.count "clusters" !next_label;
    Obs.Metric.count "inter_edges" (List.length inter_edges);
    Obs.Metric.set_max "levels" !wave;
    report !work;
    List.iter
      (fun (_, vs, _) -> Obs.Metric.hist "cluster_size" (List.length vs))
      accepted
  end;
  let witnesses =
    Array.of_list
      (List.map (fun (path, _, w) -> { w with w_path = path }) accepted)
  in
  ( {
      labels;
      k = !next_label;
      inter_edges;
      epsilon;
      phi = tau *. tau /. 4.;
      tau;
      witnesses;
    },
    !work )

let decompose ?(pool = Parallel.Pool.sequential) g ~epsilon =
  let accept = Accept (no_witness ~path:[] ~source:"spectral") in
  fst
    (drive ~entry:"Expander_decomposition.decompose" ~span:"decompose"
       ~singleton:"spectral" ~exact:"spectral"
       ~judge:(fun sub _ ~tau ~seed ->
         let cut = Sweep_cut.combined_cut sub ~iters:power_iters ~seed in
         ((if cut.conductance >= tau then accept else Cut cut.side), ()))
       ~zero:() ~add:(fun () () -> ()) ~report:ignore ~pool g ~epsilon)

let inter_fraction g t =
  let m = Graph.m g in
  if m = 0 then 0.
  else float_of_int (List.length t.inter_edges) /. float_of_int m

let verify ~power_iters ~seed ?(pool = Parallel.Pool.sequential) g t =
  let m = Graph.m g in
  let inter_ok =
    float_of_int (List.length t.inter_edges) <= (t.epsilon *. float_of_int m) +. 1e-9
  in
  (* per-cluster conductance certification fans out on the pool; the min is
     folded sequentially in cluster order *)
  let worst =
    Parallel.Pool.map_reduce pool
      ~map:(fun (_, sub, _) ->
        if Graph.n sub >= 2 && Graph.m sub > 0 then
          if Graph.n sub <= exact_limit then Conductance.exact sub
          else (Sweep_cut.combined_cut sub ~iters:power_iters ~seed).conductance
        else infinity)
      ~reduce:min ~init:infinity
      (Graph_ops.clusters ~pool g t.labels t.k)
  in
  (inter_ok, worst)

let bfs_ball_baseline g ~radius =
  let n = Graph.n g in
  let labels = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if labels.(v) < 0 then begin
      let l = !next in
      incr next;
      let dist = Traversal.bfs g v in
      for u = 0 to n - 1 do
        if labels.(u) < 0 && dist.(u) >= 0 && dist.(u) <= radius then
          labels.(u) <- l
      done
    end
  done;
  {
    labels;
    k = !next;
    inter_edges = Graph_ops.inter_edges g labels;
    epsilon = 1.;
    phi = 0.;
    tau = 0.;
    witnesses =
      Array.init !next (fun i -> no_witness ~path:[ i ] ~source:"baseline");
  }
