open Sparse_graph
open Congest

type result = {
  edges_at_leader : (int * (int * int) list) list;
  delivery : float;
  orientation_stats : Network.stats;
  routing_stats : Network.stats;
}

let run (view : Cluster_view.t) ~leader_of ~density ~walk_len ~seed ~max_rounds =
  Obs.Span.with_ "distr.gather" @@ fun () ->
  let g = view.graph in
  let n = Graph.n g in
  let orientation = Orientation.run view ~density in
  (* out-edges per vertex, in a stable order so that token seq identifies
     the edge: seq k of vertex v = v's k-th owned edge by edge id *)
  let out_edges = Array.make n [] in
  Graph.iter_edges g (fun e u v ->
      let o = orientation.owner.(e) in
      if o >= 0 then begin
        let other = if o = u then v else u in
        out_edges.(o) <- (e, other) :: out_edges.(o)
      end);
  let out_edges = Array.map List.rev out_edges in
  let tokens_of v = List.length out_edges.(v) in
  let routing =
    Walk_routing.run view ~leader_of ~tokens_of ~walk_len ~seed ~max_rounds
  in
  let edges_at_leader =
    List.map
      (fun (leader, toks) ->
        let edges =
          List.map
            (fun (t : Walk_routing.token) ->
              let _, other = List.nth out_edges.(t.origin) t.seq in
              (min t.origin other, max t.origin other))
            toks
        in
        (leader, List.sort_uniq compare edges))
      routing.delivered
  in
  {
    edges_at_leader;
    delivery = Walk_routing.delivery_rate view ~tokens_of routing;
    orientation_stats = orientation.stats;
    routing_stats = routing.stats;
  }

let complete (view : Cluster_view.t) ~leader_of edges_at_leader =
  let g = view.graph in
  (* expected edges per leader *)
  let expected = Hashtbl.create 16 in
  Graph.iter_edges g (fun _ u v ->
      if view.labels.(u) = view.labels.(v) then begin
        let leader = leader_of.(u) in
        let cur = try Hashtbl.find expected leader with Not_found -> [] in
        Hashtbl.replace expected leader ((u, v) :: cur)
      end);
  let ok = ref true in
  Hashtbl.iter
    (fun leader edges ->
      let want = List.sort_uniq compare edges in
      let got =
        match List.assoc_opt leader edges_at_leader with
        | Some es -> es
        | None -> []
      in
      if got <> want then ok := false)
    expected;
  (* no leader may report edges outside its cluster *)
  List.iter
    (fun (leader, es) ->
      List.iter
        (fun (u, v) ->
          if
            view.labels.(u) <> view.labels.(v)
            || leader_of.(u) <> leader
            || not (Graph.mem_edge g u v)
          then ok := false)
        es)
    edges_at_leader;
  !ok
