(* Expander routing: witness hierarchy, serving layer, and the fixed
   walk router. Pins the PR's contracts:

   - planned paths are real walks of the graph (src first, dst last,
     consecutive entries edges), for both decomposition engines; on the
     spectral engine's witness-less clusters no hop is a shortcut;
   - the planner summary's accounting is internally consistent
     (delivered + failed = demands, p50 <= p99 <= max, congestion total
     = sum of weighted path lengths);
   - the edges [Hierarchy.charge] charges for a route, read from its
     legs' recorded edge ids, equal a [Graph.find_edge] recount of the
     route's expanded path, and the per-edge congestion equals the same
     recount of the plans, over witness shortcuts, portal crossings and
     global-BFS fallback legs;
   - least-loaded never makes the hottest edge worse than round-robin
     on pinned hot-spot workloads, within one epoch and over three (where
     the diversion gate is nonzero), and summaries, plans and diversion
     counters stay identical at jobs 1, 2 and 4, over one epoch and two;
   - planner and CONGEST execution deliver the same demand multiset at
     every shards {1,4} x jobs {1,4} point, byte-identically;
   - the walk router's delivery order is pinned by a fixed-seed golden
     (own tokens in seq order, then arrival order), once on a complete
     graph and once on a grid where the per-edge capacity binds, which
     also pins the per-slot send order and the message accounting;
   - the walk router rejects a negative walk budget, negative token
     counts and token ids that would overflow their int encoding;
   - qcheck: the leaf walk, which logs climbs along heavy paths as run
     legs, gives the same plans, charges and hop kinds as the per-hop
     LCA walk it replaced, kept here as an oracle, on deep one-cluster
     grids, trees whose runs sit at the jump threshold, a hand-built
     cycle whose tree has a shortcut bundle inside a run, Apollonian
     graphs and a multi-cluster grid;
   - the walk router's flat loop equals the same walk run as a round
     function on the simulator (test/walk_reference.ml), field for field
     and stats included, by qcheck over grids, Apollonian graphs,
     complete 8, decomposed views, an intra-isolated vertex, expiring
     budgets, round cut-offs and binding capacity, and on the two app
     walks of the end-to-end benchmark, meters included;
   - qcheck: [delivered + undelivered = total] survives drop/crash
     schedules, every shards x jobs point, and halting-round cutoffs,
     for the simulator-hosted walk and the witness router, and round
     cut-offs for the flat walk loop. *)

open Sparse_graph

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let pool_of jobs = Parallel.Pool.create ~jobs ()

let exec_points =
  [ (1, 1); (1, 4); (4, 1); (4, 4) ]
  |> List.map (fun (shards, jobs) ->
         ( Printf.sprintf "s%dj%d" shards jobs,
           Congest.Network.Sharded { shards; pool = pool_of jobs } ))

let service ?pool ?(engine = Core.Pipeline.Cut_matching_engine)
    ?(epsilon = 0.3) g =
  let p = Core.Pipeline.prepare ~mode:Core.Pipeline.Charged ~engine g ~epsilon ~seed:5 in
  Core.Pipeline.routing_service ?pool p

let demands_of g ~count ~seed =
  let st = Random.State.make [| seed; 0x5eed |] in
  let n = Graph.n g in
  Array.init count (fun _ ->
      {
        Route.Service.src = Random.State.int st n;
        dst = Random.State.int st n;
        weight = 1 + Random.State.int st 3;
      })

let valid_plan g (d : Route.Service.demand) p =
  let len = Array.length p in
  len >= 1
  && p.(0) = d.src
  && p.(len - 1) = d.dst
  &&
  let ok = ref true in
  for i = 1 to len - 1 do
    if p.(i - 1) = p.(i) then ok := false
    else
      match Graph.find_edge g p.(i - 1) p.(i) with
      | _ -> ()
      | exception Not_found -> ok := false
  done;
  !ok

(* per-edge weighted load of [plans], recounted hop by hop with
   [Graph.find_edge]: the oracle for the edge ids the planner emits *)
let recount g (ds : Route.Service.demand array) plans =
  let cong = Array.make (Graph.m g) 0 in
  Array.iteri
    (fun i p ->
      for q = 1 to Array.length p - 1 do
        let e = Graph.find_edge g p.(q - 1) p.(q) in
        cong.(e) <- cong.(e) + ds.(i).Route.Service.weight
      done)
    plans;
  cong

(* route every ordered pair straight through [Hierarchy.route] under both
   policies, feeding Least_loaded the live load that [Hierarchy.charge]
   accumulates, and check after every demand that the charge matches a
   [Graph.find_edge] recount of the expanded path *)
let check_route_charges name g h =
  let n = Graph.n g in
  let rt = Route.Hierarchy.make_router h in
  let out = Route.Hierarchy.vec_create () in
  let cong = Array.make (Graph.m g) 0 in
  let recounted = Array.make (Graph.m g) 0 in
  List.iter
    (fun policy ->
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          checkb name true (Route.Hierarchy.route ~policy ~cong h rt out src dst);
          let p = Route.Hierarchy.vec_to_array out in
          checkb name true
            (valid_plan g { Route.Service.src; dst; weight = 1 } p);
          checki name (Route.Hierarchy.vec_hops out) (Array.length p - 1);
          Route.Hierarchy.charge cong out 1;
          for q = 1 to Array.length p - 1 do
            let e = Graph.find_edge g p.(q - 1) p.(q) in
            recounted.(e) <- recounted.(e) + 1
          done;
          checkb name true (cong = recounted)
        done
      done)
    [ Route.Hierarchy.Round_robin; Route.Hierarchy.Least_loaded ]

(* serve every ordered pair and compare the service's per-edge loads with
   the recount of its plans, under both policies *)
let check_congestion_recount name g svc =
  let n = Graph.n g in
  let ds =
    Array.init (n * n) (fun i ->
        { Route.Service.src = i / n; dst = i mod n; weight = 1 + (i mod 3) })
  in
  List.iter
    (fun policy ->
      let s = Route.Service.serve ~policy svc ds in
      let plans = Route.Service.plan ~policy svc ds in
      checki (name ^ ": all routable") 0 s.Route.Service.failed;
      checkb (name ^ ": per-edge recount") true
        (recount g ds plans = Route.Service.congestion svc))
    [ Route.Hierarchy.Round_robin; Route.Hierarchy.Least_loaded ]

(* ------------------------------------------------------------------ *)
(* Planner: path validity and summary accounting                       *)
(* ------------------------------------------------------------------ *)

(* A planner-test input: a graph, its epsilon, and whether its
   decomposition must have k > 1. The epsilon = 0.3 inputs are single
   clusters; grid 24x24 at epsilon = 0.8 splits under both engines, so
   its demands cross portals (route_across, portal cursors, and
   merge_router's cursor fold at jobs > 1). *)
let single g = (g, 0.3, false)
let multi_cluster_grid () = (Generators.grid 24 24, 0.8, true)

let input_service ?engine ?pool (g, epsilon, multi) =
  let svc = service ?engine ?pool ~epsilon g in
  if multi then
    checkb "decomposition has k > 1" true
      ((Route.Hierarchy.info (Route.Service.hierarchy svc))
         .Route.Hierarchy.clusters > 1);
  svc

let test_plans_valid_both_engines () =
  List.iter
    (fun engine ->
      List.iter
        (fun ((g, _, _) as input) ->
          let svc = input_service ~engine input in
          let ds = demands_of g ~count:60 ~seed:3 in
          let plans = Route.Service.plan svc ds in
          Array.iteri
            (fun i p ->
              checkb "plan is a real walk" true (valid_plan g ds.(i) p))
            plans)
        [ single (Generators.grid 7 6); multi_cluster_grid () ])
    [ Core.Pipeline.Spectral_engine; Core.Pipeline.Cut_matching_engine ]

let check_summary_accounting g svc =
  let ds = demands_of g ~count:200 ~seed:9 in
  let s = Route.Service.serve svc ds in
  checki "delivered + failed = demands" s.Route.Service.demands
    (s.Route.Service.delivered + s.Route.Service.failed);
  checki "connected graph: all routable" 0 s.Route.Service.failed;
  checkb "p50 <= p99" true (s.Route.Service.rounds_p50 <= s.Route.Service.rounds_p99);
  checkb "p99 <= max" true (s.Route.Service.rounds_p99 <= s.Route.Service.rounds_max);
  (* congestion total must equal the weighted sum of plan lengths *)
  let plans = Route.Service.plan svc ds in
  let expect = ref 0 in
  Array.iteri
    (fun i p ->
      expect := !expect + (ds.(i).Route.Service.weight * (Array.length p - 1)))
    plans;
  checki "congestion accounting" !expect s.Route.Service.congestion_total;
  let cong = Route.Service.congestion svc in
  checki "per-edge loads sum to the total" s.Route.Service.congestion_total
    (Array.fold_left ( + ) 0 cong);
  checkb "per-edge loads equal the plans' recount" true (recount g ds plans = cong)

let test_summary_accounting () =
  List.iter
    (fun ((g, _, _) as input) -> check_summary_accounting g (input_service input))
    [ single (Generators.random_planar 90 1.6 ~seed:4); multi_cluster_grid () ]

(* hot-spot pattern: most demands converge on one destination *)
let hot_demands g ~count ~seed =
  let st = Random.State.make [| seed; 0x407 |] in
  let n = Graph.n g in
  let hot = n / 2 in
  Array.init count (fun _ ->
      let dst = if Random.State.float st 1.0 < 0.9 then hot else Random.State.int st n in
      {
        Route.Service.src = Random.State.int st n;
        dst;
        weight = 1;
      })

(* least-loaded selection must not make the hottest edge worse than
   round-robin on these pinned workloads (the v2 bench axis, in the
   small). 40 000 demands span three epochs of 16 384, so the later
   epochs route under a nonzero diversion gate (twice the mean edge load
   of the epoch's snapshot) *)
let test_least_loaded_beats_round_robin () =
  List.iter
    (fun (((g, _, _) as input), count, seed) ->
      let svc = input_service input in
      let ds = hot_demands g ~count ~seed in
      let rr = Route.Service.serve ~policy:Route.Hierarchy.Round_robin svc ds in
      let ll = Route.Service.serve ~policy:Route.Hierarchy.Least_loaded svc ds in
      checki "same deliveries under both policies" rr.Route.Service.delivered
        ll.Route.Service.delivered;
      checkb "least-loaded congestion_max <= round-robin" true
        (ll.Route.Service.congestion_max <= rr.Route.Service.congestion_max))
    [
      (single (Generators.grid 12 12), 2000, 21);
      (single (Generators.random_planar 160 1.7 ~seed:6), 2000, 22);
      (single (Generators.random_regular 96 4 ~seed:3), 1500, 23);
      (multi_cluster_grid (), 2000, 24);
      (single (Generators.grid 12 12), 40_000, 21);
      (single (Generators.random_planar 160 1.7 ~seed:6), 40_000, 22);
      (single (Generators.random_regular 96 4 ~seed:3), 40_000, 23);
      (multi_cluster_grid (), 40_000, 24);
    ]

(* the route.divert_* counters [Service.summarize] emits: entry probes,
   gated calls, diversions *)
let divert_counts svc ds policy =
  Obs.reset ();
  Obs.enable ();
  let s = Route.Service.serve ~policy svc ds in
  let tree = Obs.snapshot_tree () in
  Obs.disable ();
  let sums, _ = Obs.Agg.totals tree in
  ( s,
    List.map
      (fun name ->
        Option.value ~default:0 (Obs.Agg.SMap.find_opt ("route." ^ name) sums))
      [ "divert_probes"; "divert_gated"; "diversions" ] )

(* epoch-parallel serving: summaries, plans and diversion counters are
   byte-identical at every pool size, for both policies. 20 000 demands
   span two epochs, so the second routes from merged cursors under a gate
   computed from the merged loads *)
let test_jobs_parity_serve () =
  List.iter
    (fun (((g, _, _) as input), count) ->
      let ds = demands_of g ~count ~seed:17 in
      List.iter
        (fun policy ->
          let base = input_service ~pool:(pool_of 1) input in
          let s1, c1 = divert_counts base ds policy in
          let p1 = Route.Service.plan ~policy base ds in
          (match c1 with
          | [ probed; _; diverted ] ->
              checkb "diversions are probed calls" true (diverted <= probed);
              if policy = Route.Hierarchy.Round_robin then
                Alcotest.(check (list int)) "round-robin never probes"
                  [ 0; 0; 0 ] c1
          | _ -> assert false);
          List.iter
            (fun jobs ->
              let svc = input_service ~pool:(pool_of jobs) input in
              let s, c = divert_counts svc ds policy in
              checkb
                (Printf.sprintf "summary identical at jobs %d" jobs)
                true (s = s1);
              Alcotest.(check (list int))
                (Printf.sprintf "diversion counters at jobs %d" jobs)
                c1 c;
              let p = Route.Service.plan ~policy svc ds in
              checkb
                (Printf.sprintf "plans identical at jobs %d" jobs)
                true (p = p1);
              checkb "congestion arrays identical" true
                (Route.Service.congestion svc = Route.Service.congestion base))
            [ 2; 4 ])
        [ Route.Hierarchy.Round_robin; Route.Hierarchy.Least_loaded ])
    [
      (single (Generators.grid 11 9), 9000);
      (multi_cluster_grid (), 9000);
      (multi_cluster_grid (), 20_000);
    ]

(* the edge ids a witness bundle carries from the flow through the
   decomposition's witness are rechecked here by Graph.endpoints, which
   did not produce them: eids.(q) joins path.(q) and path.(q+1), and the
   representative is the minimum id. The grid and the Apollonian graph
   stay one cluster, whose induced subgraph numbers edges as the graph
   does; the 40x20 grid splits at epsilon 0.5 into clusters with
   matchings, where a game's edge ids must be mapped back. *)
let test_carried_bundle_ids () =
  List.iter
    (fun (name, g, epsilon, split) ->
      let svc = service ~epsilon g in
      let h = Route.Service.hierarchy svc in
      let bundles = ref 0 in
      Route.Hierarchy.iter_bundles h (fun p eids rep ->
          incr bundles;
          checki "one id per hop" (Array.length p - 1) (Array.length eids);
          Array.iteri
            (fun q e ->
              let a, b = Graph.endpoints g e in
              let x = p.(q) and y = p.(q + 1) in
              if (a, b) <> (min x y, max x y) then
                Alcotest.failf "%s: edge %d is (%d, %d), path hop (%d, %d)"
                  name e a b x y)
            eids;
          checki "rep is the minimum id" (Array.fold_left min max_int eids) rep);
      let info = Route.Hierarchy.info h in
      checkb (name ^ ": bundles seen") true
        (!bundles = 2 * info.Route.Hierarchy.shortcuts && !bundles > 0);
      checkb (name ^ ": cluster count") true
        (split = (info.Route.Hierarchy.clusters > 1)))
    [
      ("grid 16x16", Generators.grid 16 16, 0.3, false);
      ("apollonian 512", Generators.random_apollonian 512 ~seed:3, 0.3, false);
      ("grid 40x20", Generators.grid 40 20, 0.5, true);
    ]

(* ------------------------------------------------------------------ *)
(* Leaf walk against the per-hop oracle                                 *)
(* ------------------------------------------------------------------ *)

(* The per-hop LCA walk that heavy-path runs replaced, kept as an oracle
   over the trees [Hierarchy.iter_tree_edges] reports: pick the tree
   whose depths of x and y sum least (ties to the lower index), climb the
   deeper side to equal depth, climb both in lockstep to the LCA, then
   descend to y, one up edge per step. A round-robin route between two
   members of one cluster is exactly one tree walk, and every leaf leg of
   any route (a diversion included: a walk to the entry's far end, then
   the entry itself) is one too, so plans, charges and hop counts equal
   over member pairs carry to every route. *)
type tree_oracle = {
  parent : int array array;  (* tree -> vertex -> parent; -1 = none *)
  up_e : int array array;    (* tree -> vertex -> edge id to the parent *)
  depth : int array array;   (* tree -> vertex -> depth; -1 = not a member *)
  trees : int array;         (* vertex -> trees of its leaf *)
}

(* most trees of any leaf *)
let max_trees h =
  let nt = ref 1 in
  Route.Hierarchy.iter_tree_edges h (fun ~tree _ _ _ ->
      nt := max !nt (tree + 1));
  !nt

let tree_oracle g labels h =
  let n = Graph.n g in
  let nt = max_trees h in
  let o =
    {
      parent = Array.init nt (fun _ -> Array.make n (-1));
      up_e = Array.init nt (fun _ -> Array.make n (-1));
      depth = Array.init nt (fun _ -> Array.make n (-1));
      trees = Array.make n 1;
    }
  in
  (* a leaf's tree count: one more than the largest index any member
     appears under *)
  let per_label = Hashtbl.create 8 in
  Route.Hierarchy.iter_tree_edges h (fun ~tree v p e ->
      o.parent.(tree).(v) <- p;
      o.up_e.(tree).(v) <- e;
      let l = labels.(v) in
      let k = Option.value ~default:1 (Hashtbl.find_opt per_label l) in
      Hashtbl.replace per_label l (max k (tree + 1)));
  for v = 0 to n - 1 do
    o.trees.(v) <-
      Option.value ~default:1 (Hashtbl.find_opt per_label labels.(v))
  done;
  let rec depth t v =
    if o.depth.(t).(v) < 0 then
      o.depth.(t).(v) <-
        (if o.parent.(t).(v) < 0 then 0 else 1 + depth t o.parent.(t).(v));
    o.depth.(t).(v)
  in
  for v = 0 to n - 1 do
    for t = 0 to o.trees.(v) - 1 do
      ignore (depth t v)
    done
  done;
  o

(* the tree a round-robin route x -> y walks *)
let oracle_tree o x y =
  let best = ref 0 in
  for t = 1 to o.trees.(x) - 1 do
    if o.depth.(t).(x) + o.depth.(t).(y)
       < o.depth.(!best).(x) + o.depth.(!best).(y)
    then best := t
  done;
  !best

(* the walk x -> y: (vertices after x, edge ids) *)
let oracle_walk o x y =
  let t = oracle_tree o x y in
  let parent = o.parent.(t) and depth = o.depth.(t) and up_e = o.up_e.(t) in
  let vs = ref [] and es = ref [] in
  let up v =
    vs := parent.(v) :: !vs;
    es := up_e.(v) :: !es
  in
  let down v =
    vs := v :: !vs;
    es := up_e.(v) :: !es
  in
  let x = ref x and y = ref y and chain = ref [] in
  while depth.(!x) > depth.(!y) do
    up !x;
    x := parent.(!x)
  done;
  while depth.(!y) > depth.(!x) do
    chain := !y :: !chain;
    y := parent.(!y)
  done;
  while !x <> !y do
    up !x;
    x := parent.(!x);
    chain := !y :: !chain;
    y := parent.(!y)
  done;
  List.iter down !chain;
  (Array.of_list (List.rev !vs), Array.of_list (List.rev !es))

(* route every (x, y, weight) of [pairs] (same-cluster members) under
   round-robin and compare with the oracle: each plan, the per-edge
   charges, and the router's hops (all direct) *)
let walk_matches_oracle g labels h pairs =
  let o = tree_oracle g labels h in
  let rt = Route.Hierarchy.make_router h in
  let out = Route.Hierarchy.vec_create () in
  let cong = Array.make (Graph.m g) 0 and expect = Array.make (Graph.m g) 0 in
  let direct = ref 0 in
  let plans_equal =
    List.for_all
      (fun (x, y, w) ->
        let routed =
          Route.Hierarchy.route ~policy:Route.Hierarchy.Round_robin ~cong:[||]
            h rt out x y
        in
        let vs, es = oracle_walk o x y in
        Route.Hierarchy.charge cong out w;
        Array.iter (fun e -> expect.(e) <- expect.(e) + w) es;
        direct := !direct + Array.length es;
        routed && Route.Hierarchy.vec_to_array out = Array.append [| x |] vs)
      pairs
  in
  let hops = Route.Hierarchy.router_hops rt in
  plans_equal && cong = expect
  && hops = { Route.Hierarchy.direct = !direct; shortcut = 0;
              portal = 0; fallback = 0 }

(* a graph as a one-cluster decomposition without a witness: the leaf
   routes on its intra edges alone *)
let one_cluster g =
  let decomp =
    {
      Spectral.Expander_decomposition.labels = Array.make (Graph.n g) 0;
      k = 1;
      inter_edges = [];
      epsilon = 0.5;
      phi = 0.01;
      tau = 0.2;
      witnesses =
        [| Spectral.Expander_decomposition.no_witness ~path:[]
             ~source:"hand-built" |];
    }
  in
  Route.Service.preprocess g decomp

(* a center joined to paths of 4, 5, 6 and 7 vertices: rooted at the
   center, the longest leg is the heavy path and the tips of the others
   sit 3, 4 and 5 steps down their own, so lockstep and one-sided climbs
   take runs just below, at and above the jump threshold *)
let spider () =
  let legs = [ 4; 5; 6; 7 ] in
  let edges = ref [] and next = ref 1 in
  List.iter
    (fun len ->
      let prev = ref 0 in
      for _ = 1 to len do
        edges := (!prev, !next) :: !edges;
        prev := !next;
        incr next
      done)
    legs;
  Graph.of_edges !next !edges

(* inputs whose leaves carry several trees: a 160-cycle as one cluster
   (roots 0, 80, 40 and 120: the last two lie 40 hops from the roots
   before them) and the 64x64
   grid as the end-to-end benchmark decomposes it (clusters of radius
   61-63) *)
let long_cycle () =
  let g = Generators.cycle 160 in
  (g, Array.make 160 0, Route.Service.hierarchy (one_cluster g))

let bench_grid () =
  let g = Generators.grid 64 64 in
  let p =
    Core.Pipeline.prepare ~mode:Core.Pipeline.Charged
      ~engine:Core.Pipeline.Cut_matching_engine g ~epsilon:0.5 ~seed:1
  in
  ( g,
    p.Core.Pipeline.decomposition.Spectral.Expander_decomposition.labels,
    Route.Service.hierarchy (Core.Pipeline.routing_service p) )

let walk_oracle_arb =
  QCheck.make
    ~print:(fun (pick, seed) -> Printf.sprintf "graph %d seed %d" pick seed)
    QCheck.Gen.(pair (0 -- 5) (int_bound 10_000))

(* [count] random same-cluster pairs with weights *)
let sampled_pairs g labels ~seed count =
  let st = Random.State.make [| seed; 0x0a7c |] in
  let n = Graph.n g in
  let rec member_of l =
    let v = Random.State.int st n in
    if labels.(v) = l then v else member_of l
  in
  List.init count (fun _ ->
      let x = Random.State.int st n in
      (x, member_of labels.(x), 1 + Random.State.int st 3))

let qcheck_walk_oracle =
  QCheck.Test.make ~name:"leaf walk: plans, charges, hops = per-hop oracle"
    ~count:40 walk_oracle_arb (fun (pick, seed) ->
      (* every ordered pair of same-cluster members *)
      let all_pairs g labels =
        let n = Graph.n g in
        List.init (n * n) (fun i -> (i / n, i mod n, 1 + (i mod 3)))
        |> List.filter (fun (x, y, _) -> labels.(x) = labels.(y))
      in
      match pick with
      | 0 | 1 ->
          let g = if pick = 0 then spider () else Generators.path 14 in
          let h = Route.Service.hierarchy (one_cluster g) in
          let labels = Array.make (Graph.n g) 0 in
          walk_matches_oracle g labels h (all_pairs g labels)
      | 5 ->
          (* four trees: the walk and the oracle must pick the same one *)
          let g, labels, h = long_cycle () in
          max_trees h = 4
          && walk_matches_oracle g labels h (sampled_pairs g labels ~seed 400)
      | _ ->
          (* the one-cluster (deep) grid, Apollonian graphs, whose
             witnesses carry shortcuts no tree takes, and the
             multi-cluster grid: sampled same-cluster pairs *)
          let g, epsilon =
            match pick with
            | 2 -> (Generators.grid 24 24, 0.3)
            | 3 -> (Generators.random_apollonian 384 ~seed:(1 + (seed land 7)), 0.3)
            | _ -> (Generators.grid 24 24, 0.8)
          in
          let p =
            Core.Pipeline.prepare ~mode:Core.Pipeline.Charged g ~epsilon ~seed:5
          in
          let labels =
            p.Core.Pipeline.decomposition.Spectral.Expander_decomposition.labels
          in
          let h = Route.Service.hierarchy (Core.Pipeline.routing_service p) in
          let k = (Route.Hierarchy.info h).Route.Hierarchy.clusters in
          (k = 1) = (pick <> 4)
          && walk_matches_oracle g labels h (sampled_pairs g labels ~seed 400))

(* an input as (graph, labels, hierarchy), prepared as the planner tests
   prepare it *)
let labelled (g, epsilon, _) =
  let p = Core.Pipeline.prepare ~mode:Core.Pipeline.Charged g ~epsilon ~seed:5 in
  ( g,
    p.Core.Pipeline.decomposition.Spectral.Expander_decomposition.labels,
    Route.Service.hierarchy (Core.Pipeline.routing_service p) )

(* every tree of every leaf is a BFS tree over intra-cluster edges from
   its root: a BFS from the root (the one member without a parent in
   that tree) over the same-label edges reaches every member at its tree
   depth, and every up edge is an intra edge joining the member and its
   parent *)
let test_leaf_trees_bfs () =
  List.iter
    (fun (name, (g, labels, h), several) ->
      let o = tree_oracle g labels h in
      let n = Graph.n g in
      if several then
        checkb (name ^ ": several trees") true (Array.length o.parent > 1);
      for t = 0 to Array.length o.parent - 1 do
        (* each leaf's root in tree t, and the up edges that are not intra
           edges joining a member to its parent *)
        let roots = Hashtbl.create 8 and bad = ref [] in
        for v = 0 to n - 1 do
          if t < o.trees.(v) then begin
            let p = o.parent.(t).(v) in
            if p < 0 then begin
              if Hashtbl.mem roots labels.(v) then bad := v :: !bad;
              Hashtbl.replace roots labels.(v) v
            end
            else begin
              let a, b = Graph.endpoints g o.up_e.(t).(v) in
              if (a, b) <> (min v p, max v p) || labels.(p) <> labels.(v) then
                bad := v :: !bad
            end
          end
        done;
        Alcotest.(check (list int))
          (Printf.sprintf "%s: tree %d: one root, intra up edges" name t)
          [] !bad;
        Hashtbl.iter
          (fun label r ->
            let dist = Array.make n (-1) in
            dist.(r) <- 0;
            let q = Queue.create () in
            Queue.add r q;
            while not (Queue.is_empty q) do
              let u = Queue.pop q in
              Graph.iter_neighbors g u (fun w ->
                  if labels.(w) = label && dist.(w) < 0 then begin
                    dist.(w) <- dist.(u) + 1;
                    Queue.add w q
                  end)
            done;
            let off = ref [] in
            for v = n - 1 downto 0 do
              if labels.(v) = label && dist.(v) <> o.depth.(t).(v) then
                off := v :: !off
            done;
            Alcotest.(check (list int))
              (Printf.sprintf "%s: tree %d of leaf %d: depth = BFS distance"
                 name t label)
              [] !off)
          roots
      done)
    [
      ("grid 16x16", labelled (single (Generators.grid 16 16)), false);
      ( "apollonian 512",
        labelled (single (Generators.random_apollonian 512 ~seed:3)),
        false );
      ("grid 24x24", labelled (multi_cluster_grid ()), false);
      ("cycle 160", long_cycle (), true);
      ("grid 64x64", bench_grid (), true);
    ]

(* a round-robin route inside one cluster is at most dk(x, t) +
   dk(y, t) hops for the tree t it walks, the one minimising that sum:
   on the deep inputs, sampled pairs never exceed any tree's sum *)
let test_intra_route_within_tree_sums () =
  List.iter
    (fun (name, (g, labels, h)) ->
      let o = tree_oracle g labels h in
      let rt = Route.Hierarchy.make_router h in
      let out = Route.Hierarchy.vec_create () in
      let shorter = ref 0 in
      List.iter
        (fun (x, y, _) ->
          checkb (name ^ ": routed") true
            (Route.Hierarchy.route ~policy:Route.Hierarchy.Round_robin
               ~cong:[||] h rt out x y);
          let hops = Route.Hierarchy.vec_hops out in
          for t = 0 to o.trees.(x) - 1 do
            let sum = o.depth.(t).(x) + o.depth.(t).(y) in
            if hops > sum then
              Alcotest.failf "%s: %d -> %d takes %d hops, tree %d sums %d"
                name x y hops t sum
          done;
          if hops < o.depth.(0).(x) + o.depth.(0).(y)
             && oracle_tree o x y > 0
          then incr shorter)
        (sampled_pairs g labels ~seed:3 2000);
      checkb (name ^ ": some routes beat tree 0") true (!shorter > 0))
    [ ("cycle 160", long_cycle ()); ("grid 64x64", bench_grid ()) ]

(* the cut-matching witness of a random regular graph carries matching
   shortcuts; over all ordered pairs Least_loaded diverts through their
   entries, and the charged edge ids must match the path *)
let test_edge_ids_witness_shortcuts () =
  let g = Generators.random_regular 48 4 ~seed:2 in
  let svc = service g in
  let h = Route.Service.hierarchy svc in
  checkb "witness leaves carry shortcuts" true
    ((Route.Hierarchy.info h).Route.Hierarchy.shortcuts > 0);
  check_route_charges "witness: charged edges match the path" g h;
  check_congestion_recount "witness" g svc

(* a spectral decomposition keeps no witness: its leaves carry no
   shortcut, no hop is logged as one, and every plan is a real walk *)
let test_spectral_no_shortcuts () =
  List.iter
    (fun ((g, _, _) as input) ->
      let svc = input_service ~engine:Core.Pipeline.Spectral_engine input in
      checki "no shortcuts" 0
        (Route.Hierarchy.info (Route.Service.hierarchy svc))
          .Route.Hierarchy.shortcuts;
      let ds = demands_of g ~count:300 ~seed:4 in
      Obs.reset ();
      Obs.enable ();
      ignore (Route.Service.serve svc ds);
      let tree = Obs.snapshot_tree () in
      Obs.disable ();
      let sums, _ = Obs.Agg.totals tree in
      checkb "hops were counted" true
        (Obs.Agg.SMap.find_opt "route.hops_direct" sums <> None);
      checki "route.hops_shortcut" 0
        (Option.value ~default:0
           (Obs.Agg.SMap.find_opt "route.hops_shortcut" sums));
      Array.iteri
        (fun i p -> checkb "plan is a real walk" true (valid_plan g ds.(i) p))
        (Route.Service.plan svc ds))
    [
      single (Generators.random_regular 48 4 ~seed:2);
      single (Generators.random_apollonian 256 ~seed:3);
      multi_cluster_grid ();
    ]

(* a hand-built decomposition of grid 4x4 into the even and the odd
   columns: both clusters are internally disconnected, so legs between
   columns leave the witness tree and run the global-BFS fallback *)
let test_edge_ids_fallback () =
  let g = Generators.grid 4 4 in
  let labels = Array.init (Graph.n g) (fun v -> v mod 2) in
  let inter_edges =
    Graph.fold_edges g
      (fun acc e u v -> if labels.(u) <> labels.(v) then e :: acc else acc)
      []
    |> List.rev
  in
  let decomp =
    {
      Spectral.Expander_decomposition.labels;
      k = 2;
      inter_edges;
      epsilon = 0.5;
      phi = 0.01;
      tau = 0.2;
      witnesses =
        Array.init 2 (fun l ->
            Spectral.Expander_decomposition.no_witness ~path:[ l ]
              ~source:"hand-built");
    }
  in
  let svc = Route.Service.preprocess g decomp in
  check_route_charges "fallback: charged edges match the path" g
    (Route.Service.hierarchy svc);
  check_congestion_recount "fallback" g svc;
  let s = Route.Service.serve svc [| { Route.Service.src = 0; dst = 2; weight = 1 } |] in
  checkb "cross-column leg falls back" true (s.Route.Service.fallbacks > 0)

(* ------------------------------------------------------------------ *)
(* CONGEST execution parity                                            *)
(* ------------------------------------------------------------------ *)

let test_congest_matches_planner_all_points () =
  let g = Generators.grid 6 6 in
  let svc = service g in
  let ds = demands_of g ~count:48 ~seed:12 in
  let runs =
    List.map
      (fun (name, exec) ->
        let r = Route.Service.serve_congest ~exec svc ds ~max_rounds:4000 in
        checkb (name ^ ": simulator matches planner") true
          r.Route.Service.match_planner;
        (name, r.Route.Service.routed.Distr.Witness_routing.delivered))
      exec_points
  in
  match runs with
  | [] -> assert false
  | (_, first) :: rest ->
      List.iter
        (fun (name, d) ->
          checkb (name ^ ": deliveries byte-identical across points") true
            (d = first))
        rest

let test_self_demands_and_degenerate () =
  let g = Graph_fixtures.star 5 in
  let svc = service g in
  let ds =
    [|
      { Route.Service.src = 2; dst = 2; weight = 7 };
      { Route.Service.src = 0; dst = 5; weight = 1 };
    |]
  in
  let r = Route.Service.serve_congest svc ds ~max_rounds:100 in
  checkb "self-demand delivered" true r.Route.Service.match_planner;
  checki "no congestion from a self-demand beyond the real hop" 1
    r.Route.Service.planner.Route.Service.congestion_max

let test_plan_start_out_of_range () =
  (* a plan that starts off the graph is rejected at the boundary, naming
     the demand and the vertex *)
  let g = Generators.path 4 in
  List.iter
    (fun (plans, msg) ->
      Alcotest.check_raises "bad start" (Invalid_argument msg) (fun () ->
          ignore (Distr.Witness_routing.run g ~plans ~max_rounds:10)))
    [
      ( [| [| 0; 1 |]; [| 4; 3 |] |],
        "Witness_routing: demand 1 starts at vertex 4, outside [0, 4)" );
      ( [| [| -1 |] |],
        "Witness_routing: demand 0 starts at vertex -1, outside [0, 4)" );
    ]

(* ------------------------------------------------------------------ *)
(* Walk router: delivery order regression (fixed seed golden)          *)
(* ------------------------------------------------------------------ *)

(* fixed-seed run on [g] with [tokens] per vertex; checks that one
   leader absorbs everything and returns its (origin, seq) delivery order *)
let walk_golden g ~rounds ~tokens ~seed ~max_rounds ~leader =
  let view = Distr.Cluster_view.whole g in
  let leaders = Distr.Leader_election.run view ~rounds in
  let r =
    Distr.Walk_routing.run view
      ~leader_of:leaders.Distr.Leader_election.leader_of
      ~tokens_of:(fun _ -> tokens)
      ~walk_len:200 ~seed ~max_rounds
  in
  match r.Distr.Walk_routing.delivered with
  | [ (l, toks) ] ->
      checki "leader" leader l;
      ( r,
        List.map
          (fun (t : Distr.Walk_routing.token) -> (t.origin, t.seq))
          toks )
  | _ -> Alcotest.fail "expected a single leader"

(* leader's own tokens first in seq order, then arrival order *)
let test_walk_order_golden () =
  (* complete graph: the max-degree tie is broken to the largest id *)
  let _, order =
    walk_golden (Generators.complete 8) ~rounds:2 ~tokens:2 ~seed:3
      ~max_rounds:2000 ~leader:7
  in
  Alcotest.(check (list (pair int int)))
    "complete 8: delivery order"
    [ (7, 0); (7, 1); (6, 0); (0, 0); (3, 0); (6, 1); (3, 1); (4, 1);
      (2, 0); (5, 0); (1, 1); (4, 0); (0, 1); (1, 0); (2, 1); (5, 1) ]
    order;
  (* grid 4x4, 4 tokens per vertex: a token is 3 words of 4 bits against
     a 32-bit budget, so at most 2 tokens cross an edge per round and
     parked tokens queue behind the capacity (19 binding drains on this
     seed); this pins the per-slot send order and the accounting too *)
  let r, order =
    walk_golden (Generators.grid 4 4) ~rounds:8 ~tokens:4 ~seed:5
      ~max_rounds:4000 ~leader:10
  in
  Alcotest.(check (list (pair int int)))
    "grid 4x4: delivery order"
    [ (10, 0); (10, 1); (10, 2); (10, 3); (9, 1); (14, 0); (8, 2); (7, 1);
      (13, 0); (9, 3); (14, 2); (6, 2); (12, 3); (7, 0); (7, 2); (14, 1);
      (4, 1); (6, 3); (2, 2); (15, 0); (13, 1); (1, 2); (9, 0); (0, 0);
      (6, 0); (12, 0); (8, 3); (7, 3); (5, 3); (5, 1); (11, 3); (13, 3);
      (0, 3); (4, 0); (13, 2); (3, 3); (6, 1); (12, 1); (5, 0); (1, 3);
      (11, 2); (0, 1); (9, 2); (2, 3); (4, 3); (1, 0); (2, 0); (4, 2);
      (15, 3); (8, 1); (8, 0); (3, 0); (2, 1); (14, 3); (11, 1); (3, 2);
      (5, 2); (15, 1); (15, 2); (1, 1); (3, 1); (11, 0); (0, 2); (12, 2) ]
    order;
  let s = r.Distr.Walk_routing.stats in
  checki "grid 4x4: messages" 944 s.Congest.Network.messages;
  checki "grid 4x4: total_bits" 11328 s.Congest.Network.total_bits;
  checki "grid 4x4: two tokens share an edge" 24
    s.Congest.Network.max_edge_bits;
  checki "grid 4x4: last_traffic_round" 174
    s.Congest.Network.last_traffic_round

let test_walk_rejects_bad_input () =
  let g = Generators.path 3 in
  let view = Distr.Cluster_view.whole g in
  let run ~tokens_of ~walk_len () =
    ignore
      (Distr.Walk_routing.run view ~leader_of:[| 2; 2; 2 |] ~tokens_of
         ~walk_len ~seed:1 ~max_rounds:10)
  in
  Alcotest.check_raises "negative walk_len"
    (Invalid_argument "Walk_routing.run: walk_len -1 is negative")
    (run ~tokens_of:(fun _ -> 1) ~walk_len:(-1));
  Alcotest.check_raises "negative token count"
    (Invalid_argument "Walk_routing.run: tokens_of 1 is -2, negative")
    (run ~tokens_of:(fun v -> if v = 1 then -2 else 1) ~walk_len:4);
  Alcotest.check_raises "token total overflows"
    (Invalid_argument
       (Printf.sprintf
          "Walk_routing.run: token total overflows max_int at vertex 1 \
           (tokens_of 1 = %d)"
          max_int))
    (run ~tokens_of:(fun _ -> max_int) ~walk_len:4);
  Alcotest.check_raises "packed token ids overflow"
    (Invalid_argument
       (Printf.sprintf
          "Walk_routing.run: 3 tokens x (walk_len %d + 1) overflows max_int"
          (max_int / 3)))
    (run ~tokens_of:(fun _ -> 1) ~walk_len:(max_int / 3));
  (* the largest budget that still fits runs normally *)
  run ~tokens_of:(fun _ -> 1) ~walk_len:((max_int / 3) - 1) ()

(* ------------------------------------------------------------------ *)
(* Walk router: the flat loop against the simulator-hosted reference   *)
(* ------------------------------------------------------------------ *)

(* per cluster, the vertex of largest intra degree (ties to the larger
   id), as the central leader choice of Core.Pipeline *)
let max_degree_leaders (view : Distr.Cluster_view.t) =
  let n = Graph.n view.graph in
  let best = Hashtbl.create 8 in
  for v = 0 to n - 1 do
    let d = Distr.Cluster_view.intra_degree view v in
    match Hashtbl.find_opt best view.labels.(v) with
    | Some (bd, bv) when (bd, bv) >= (d, v) -> ()
    | _ -> Hashtbl.replace best view.labels.(v) (d, v)
  done;
  Array.init n (fun v -> snd (Hashtbl.find best view.labels.(v)))

(* views: the whole graph; the clusters of an expander decomposition;
   or the whole graph with vertex 0 cut off into a cluster of its own
   and led from outside, so it holds its tokens on no intra edge until
   they expire *)
type walk_view = Whole | Decomposed | Isolated_zero

let walk_view_name = function
  | Whole -> "whole"
  | Decomposed -> "decomposed"
  | Isolated_zero -> "isolated 0"

let walk_case_gen =
  let open QCheck.Gen in
  let* family =
    oneof
      [
        map2 (fun r c -> `Grid (r, c)) (2 -- 8) (2 -- 8);
        map2 (fun n s -> `Apollonian (n, s)) (8 -- 160) (int_bound 1000);
        return `Complete;
      ]
  in
  let* view = oneofl [ Whole; Decomposed; Isolated_zero ] in
  let* walk_len = oneofl [ 0; 1; 3; 12; 80; 400 ] in
  let* max_rounds = oneofl [ 0; 1; 2; 9; 60; 6000 ] in
  let* load = 0 -- 6 in
  let* seed = int_bound 10_000 in
  return (family, view, walk_len, max_rounds, load, seed)

let walk_case_print (family, view, walk_len, max_rounds, load, seed) =
  Printf.sprintf "%s, %s view, walk_len %d, max_rounds %d, load %d, seed %d"
    (match family with
    | `Grid (r, c) -> Printf.sprintf "grid %dx%d" r c
    | `Apollonian (n, s) -> Printf.sprintf "apollonian %d seed %d" n s
    | `Complete -> "complete 8")
    (walk_view_name view) walk_len max_rounds load seed

let walk_inputs (family, view, _, _, load, _) =
  let g =
    match family with
    | `Grid (r, c) -> Generators.grid r c
    | `Apollonian (n, s) -> Generators.random_apollonian n ~seed:s
    | `Complete -> Generators.complete 8
  in
  let n = Graph.n g in
  let cview =
    match view with
    | Whole -> Distr.Cluster_view.whole g
    | Decomposed ->
        let d = Spectral.Expander_decomposition.decompose g ~epsilon:0.3 in
        Distr.Cluster_view.of_labels g d.labels
    | Isolated_zero ->
        Distr.Cluster_view.of_labels g
          (Array.init n (fun v -> if v = 0 then 1 else 0))
  in
  let leader_of = max_degree_leaders cview in
  if view = Isolated_zero then leader_of.(0) <- leader_of.(n - 1);
  (* uneven loads up to [load] tokens a vertex, so hubs and their
     neighbors park more than the per-edge capacity of 2 *)
  let tokens_of v = ((v * 7) + load) mod (load + 1) in
  (cview, leader_of, tokens_of)

let qcheck_walk_matches_reference =
  QCheck.Test.make ~name:"walk loop = simulator-hosted walk, field for field"
    ~count:120
    (QCheck.make ~print:walk_case_print walk_case_gen)
    (fun ((_, _, walk_len, max_rounds, _, seed) as case) ->
      let view, leader_of, tokens_of = walk_inputs case in
      let flat =
        Distr.Walk_routing.run view ~leader_of ~tokens_of ~walk_len ~seed
          ~max_rounds
      in
      let sim =
        Walk_reference.run view ~leader_of ~tokens_of ~walk_len ~seed
          ~max_rounds
      in
      (* field for field: delivered lists in order, the three counters
         and the whole stats record *)
      flat = sim)

(* the net and active-vertex meters a run leaves under its span *)
let walk_meters run =
  Obs.reset ();
  Obs.enable ();
  let r = Obs.Span.with_ "distr.walk_routing" run in
  let tree = Obs.snapshot_tree () in
  Obs.disable ();
  Obs.reset ();
  let sums, maxes = Obs.Agg.totals tree in
  let get m k = Option.value ~default:(-1) (Obs.Agg.SMap.find_opt k m) in
  ( r,
    List.map (get sums)
      Obs.Meter.[ k_runs; k_rounds; k_messages; k_bits; k_active_vertices ]
    @ [ get maxes Obs.Meter.k_max_edge_bits ] )

(* the two app walks of the end-to-end benchmark: App_mis at epsilon 0.5
   and seed 7 on a 16x16 grid and on the fixed Apollonian graph. The
   walk inputs are rebuilt from the prepared pipeline (first gathering
   attempt); the production run's own stats pin that they are the ones
   it used *)
let test_app_walks_match_reference () =
  List.iter
    (fun (name, g) ->
      let a = Core.App_mis.run ~mode:Core.Pipeline.Simulated g ~epsilon:0.5
          ~seed:7 in
      let p = a.Core.App_mis.pipeline in
      let view = p.Core.Pipeline.view and leader_of = p.leader_of in
      let orientation =
        Distr.Orientation.run view ~density:(max 1. (Graph.edge_density g))
      in
      let owned = Array.make (Graph.n g) 0 in
      Array.iter
        (fun o -> if o >= 0 then owned.(o) <- owned.(o) + 1)
        orientation.Distr.Orientation.owner;
      let b = p.report.Core.Pipeline.diameter_bound in
      (* Pipeline.prepare's own log2, float rounding and all *)
      let logn =
        int_of_float (ceil (log (float_of_int (max 2 (Graph.n g))) /. log 2.))
      in
      let walk_len = max 64 (4 * b * b * logn) in
      let walk run () =
        run view ~leader_of ~tokens_of:(Array.get owned) ~walk_len ~seed:7
          ~max_rounds:(walk_len * 40)
      in
      let flat, flat_meters =
        walk_meters (walk (fun v -> Distr.Walk_routing.run v))
      in
      let sim, sim_meters = walk_meters (walk (fun v -> Walk_reference.run v)) in
      checkb (name ^ ": inputs are the app walk's") true
        (p.report.routing_stats = Some flat.Distr.Walk_routing.stats);
      checkb (name ^ ": every token delivered") true
        (flat.Distr.Walk_routing.undelivered = 0);
      checkb (name ^ ": flat loop = simulator-hosted walk") true
        (flat = sim);
      Alcotest.(check (list int))
        (name ^ ": net and active-vertex meters") sim_meters flat_meters)
    [
      ("grid 16x16", Generators.grid 16 16);
      ("apollonian 1024", Generators.random_apollonian 1024 ~seed:20220711);
    ]

(* ------------------------------------------------------------------ *)
(* qcheck: conservation under faults, shards x jobs, halting rounds    *)
(* ------------------------------------------------------------------ *)

let fault_gen =
  let open QCheck.Gen in
  let crash n =
    let* vertex = int_bound (n - 1) in
    let* at_round = map (fun r -> 1 + r) (int_bound 6) in
    let* recover = opt (map (fun r -> at_round + 1 + r) (int_bound 5)) in
    return { Congest.Faults.vertex; at_round; recover_round = recover }
  in
  fun n ->
    let* seed = int_bound 10_000 in
    let* drop = oneofl [ 0.; 0.1; 0.4 ] in
    let* crashes = list_size (int_bound 2) (crash n) in
    return (Congest.Faults.make ~drop_rate:drop ~crashes ~seed ())

let routing_case_gen =
  let open QCheck.Gen in
  let* rows = 2 -- 4 in
  let* cols = 2 -- 4 in
  let* shards, jobs = oneofl [ (1, 1); (1, 4); (4, 1); (4, 4) ] in
  let* max_rounds = oneofl [ 1; 3; 17; 2000 ] in
  let* faults = fault_gen (rows * cols) in
  let* seed = int_bound 1000 in
  return (rows, cols, shards, jobs, max_rounds, faults, seed)

let routing_case_arb =
  QCheck.make
    ~print:(fun (r, c, s, j, mr, f, seed) ->
      Printf.sprintf "grid %dx%d shards %d jobs %d max_rounds %d seed %d %s" r
        c s j mr seed
        (Printf.sprintf "faults seed=%d drop=%g crashes=%d" f.Congest.Faults.seed
           f.Congest.Faults.drop_rate
           (List.length f.Congest.Faults.crashes)))
    routing_case_gen

(* shortest-path plans, so witness-router conservation is exercised
   independently of the planner *)
let bfs_plan g src dst =
  let n = Graph.n g in
  let pred = Array.make n (-1) in
  pred.(src) <- src;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Graph.iter_neighbors g v (fun w ->
        if pred.(w) < 0 then begin
          pred.(w) <- v;
          Queue.add w q
        end)
  done;
  let rec walk acc v = if v = src then v :: acc else walk (v :: acc) pred.(v) in
  Array.of_list (walk [] dst)

let qcheck_walk_conservation =
  QCheck.Test.make ~name:"walk router: delivered + undelivered = total"
    ~count:40 routing_case_arb
    (fun (rows, cols, shards, jobs, max_rounds, faults, seed) ->
      let g = Generators.grid rows cols in
      let view = Distr.Cluster_view.whole g in
      let leaders = Distr.Leader_election.run view ~rounds:(rows + cols) in
      let r =
        Walk_reference.run
          ~exec:(Congest.Network.Sharded { shards; pool = pool_of jobs })
          ~faults view
          ~leader_of:leaders.Distr.Leader_election.leader_of
          ~tokens_of:(fun v -> v mod 3)
          ~walk_len:30 ~seed ~max_rounds
      in
      let total = ref 0 in
      for v = 0 to Graph.n g - 1 do
        total := !total + (v mod 3)
      done;
      let got =
        List.fold_left
          (fun acc (_, toks) -> acc + List.length toks)
          0 r.Distr.Walk_routing.delivered
      in
      got + r.Distr.Walk_routing.undelivered = !total
      && r.Distr.Walk_routing.expired <= r.Distr.Walk_routing.undelivered
      && r.Distr.Walk_routing.held <= r.Distr.Walk_routing.undelivered)

(* the flat loop itself, at the same round cut-offs; no faults or shards
   exist there to vary *)
let qcheck_walk_loop_conservation =
  QCheck.Test.make ~name:"walk loop: delivered + undelivered = total"
    ~count:40 routing_case_arb
    (fun (rows, cols, _, _, max_rounds, _, seed) ->
      let g = Generators.grid rows cols in
      let view = Distr.Cluster_view.whole g in
      let leaders = Distr.Leader_election.run view ~rounds:(rows + cols) in
      let leader_of = leaders.Distr.Leader_election.leader_of in
      let tokens_of v = v mod 3 in
      let r =
        Distr.Walk_routing.run view ~leader_of ~tokens_of ~walk_len:30 ~seed
          ~max_rounds
      in
      Distr.Walk_routing.check view ~leader_of ~tokens_of r
      && r.Distr.Walk_routing.expired + r.Distr.Walk_routing.held
         <= r.Distr.Walk_routing.undelivered)

let qcheck_witness_conservation =
  QCheck.Test.make ~name:"witness router: delivered + undelivered = demands"
    ~count:40 routing_case_arb
    (fun (rows, cols, shards, jobs, max_rounds, faults, seed) ->
      let g = Generators.grid rows cols in
      let n = Graph.n g in
      let st = Random.State.make [| seed; 31 |] in
      let plans =
        Array.init (n * 2) (fun _ ->
            bfs_plan g (Random.State.int st n) (Random.State.int st n))
      in
      let r =
        Distr.Witness_routing.run
          ~exec:(Congest.Network.Sharded { shards; pool = pool_of jobs })
          ~faults g ~plans ~max_rounds
      in
      let got =
        List.fold_left
          (fun acc (_, ds) -> acc + List.length ds)
          0 r.Distr.Witness_routing.delivered
      in
      got + r.Distr.Witness_routing.undelivered = Array.length plans
      && Distr.Witness_routing.check ~plans r)

(* qcheck: the serve summary's congestion_total always equals the
   weighted sum of the planned path lengths, and the per-edge loads equal
   a find_edge recount of the plans, under either policy and for
   spectral leaves and the cut-matching witness *)
let accounting_case_arb =
  let open QCheck.Gen in
  let gen =
    let* pick = 0 -- 3 in
    let* count = 50 -- 250 in
    let* seed = int_bound 10_000 in
    let* ll = bool in
    let* cm = bool in
    return (pick, count, seed, ll, cm)
  in
  QCheck.make
    ~print:(fun (pick, count, seed, ll, cm) ->
      Printf.sprintf "graph %d count %d seed %d policy %s witness %s" pick
        count seed
        (if ll then "least_loaded" else "round_robin")
        (if cm then "cut-matching" else "spectral"))
    gen

let qcheck_congestion_accounting =
  QCheck.Test.make
    ~name:"serve: congestion_total = sum weight x length, per-edge recount"
    ~count:30 accounting_case_arb
    (fun (pick, count, seed, ll, cm) ->
      (* the first three graphs decompose into one cluster; grid 24x24
         at epsilon 0.8 splits, so its demands cross portal edges *)
      let g, epsilon =
        match pick with
        | 0 -> (Generators.grid 9 7, 0.3)
        | 1 -> (Generators.random_planar 80 1.6 ~seed:(1 + (seed land 7)), 0.3)
        | 2 -> (Generators.random_regular 64 4 ~seed:(1 + (seed land 15)), 0.3)
        | _ -> (Generators.grid 24 24, 0.8)
      in
      let policy =
        if ll then Route.Hierarchy.Least_loaded else Route.Hierarchy.Round_robin
      in
      let engine =
        if cm then Core.Pipeline.Cut_matching_engine
        else Core.Pipeline.Spectral_engine
      in
      let svc = service ~engine ~epsilon g in
      let ds = demands_of g ~count ~seed in
      let s = Route.Service.serve ~policy svc ds in
      let plans = Route.Service.plan ~policy svc ds in
      let expect = ref 0 in
      Array.iteri
        (fun i p ->
          if Array.length p > 0 then
            expect :=
              !expect + (ds.(i).Route.Service.weight * (Array.length p - 1)))
        plans;
      s.Route.Service.demands = s.Route.Service.delivered + s.Route.Service.failed
      && !expect = s.Route.Service.congestion_total
      && Array.fold_left ( + ) 0 (Route.Service.congestion svc)
         = s.Route.Service.congestion_total
      && recount g ds plans = Route.Service.congestion svc)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "route"
    [
      ( "planner",
        [
          tc "plans valid, both engines" test_plans_valid_both_engines;
          tc "summary accounting" test_summary_accounting;
          tc "least-loaded vs round-robin" test_least_loaded_beats_round_robin;
          tc "jobs parity (serve epochs)" test_jobs_parity_serve;
          tc "carried bundle edge ids" test_carried_bundle_ids;
          tc "hop edge ids, witness shortcuts" test_edge_ids_witness_shortcuts;
          tc "spectral leaves: no shortcuts" test_spectral_no_shortcuts;
          tc "hop edge ids, fallback legs" test_edge_ids_fallback;
          tc "every leaf tree is a BFS tree" test_leaf_trees_bfs;
          tc "intra route within tree depth sum"
            test_intra_route_within_tree_sums;
        ] );
      ( "congest",
        [
          tc "matches planner at all shards x jobs"
            test_congest_matches_planner_all_points;
          tc "self-demands and leaves" test_self_demands_and_degenerate;
          tc "plan start out of range" test_plan_start_out_of_range;
        ] );
      ( "walk router",
        [
          tc "delivery order golden" test_walk_order_golden;
          tc "rejects bad input" test_walk_rejects_bad_input;
          tc "app walks = simulator-hosted walk" test_app_walks_match_reference;
          qt qcheck_walk_matches_reference;
        ] );
      ( "conservation",
        [
          qt qcheck_walk_conservation;
          qt qcheck_walk_loop_conservation;
          qt qcheck_witness_conservation;
          qt qcheck_congestion_accounting;
        ] );
      ("leaf walk", [ qt qcheck_walk_oracle ]);
    ]
