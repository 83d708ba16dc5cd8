open Sparse_graph
open Congest

type result = {
  mate : int array;
  rounds_used : int;
  stats : Network.stats;
}

type msg = Point | Taken

type state = {
  mate : int;
  live_neighbors : (int * (int * int)) list;
      (* neighbor -> (edge weight, edge id): the symmetric preference key *)
  pointed_to : int;
}

(* Locally-heaviest-edge matching (Preis-style): every unmatched vertex
   points along its best live edge by the symmetric key (weight, edge id);
   an edge joins the matching when both endpoints point at each other. The
   globally best live edge is mutual, so every phase makes progress and the
   matching is maximal when no live edge remains. Two rounds per phase. *)
let run ?exec (view : Cluster_view.t) ?weights ~seed () =
  Obs.Span.with_ "distr.greedy_matching" @@ fun () ->
  let g = view.graph in
  let n = Graph.n g in
  ignore seed;
  let key v w =
    let e = Graph.find_edge g v w in
    let wt = match weights with None -> 1 | Some ws -> Weights.get ws e in
    (wt, e)
  in
  let intra =
    Array.init n (fun v ->
        List.map (fun w -> (w, key v w)) (Cluster_view.intra_neighbors view v))
  in
  let best live =
    List.fold_left
      (fun acc (w, k) ->
        match acc with
        | None -> Some (w, k)
        | Some (_, bk) -> if k > bk then Some (w, k) else acc)
      None live
  in
  let init (ctx : Network.ctx) =
    { mate = -1; live_neighbors = intra.(ctx.id); pointed_to = -1 }
  in
  (* An unmatched vertex re-points at its best live neighbor on every odd
     round whether or not anything arrived, so every non-halting step
     wakes the vertex for the next round. *)
  let round r (_ctx : Network.ctx) st inbox =
    if st.mate >= 0 then Network.step st ~halt:true
    else begin
      let taken =
        List.filter_map (function s, Taken -> Some s | _ -> None) inbox
      in
      let live =
        List.filter (fun (w, _) -> not (List.mem w taken)) st.live_neighbors
      in
      let st = { st with live_neighbors = live } in
      if r mod 2 = 1 then begin
        match best live with
        | None -> Network.step st ~halt:true
        | Some (w, _) ->
            let st = { st with pointed_to = w } in
            Network.step st ~send:[ (w, Point) ] ~wake_after:1
      end
      else begin
        let pointers =
          List.filter_map (function s, Point -> Some s | _ -> None) inbox
        in
        if st.pointed_to >= 0 && List.mem st.pointed_to pointers then begin
          let st = { st with mate = st.pointed_to } in
          let send =
            List.filter_map
              (fun (w, _) -> if w <> st.mate then Some (w, Taken) else None)
              st.live_neighbors
          in
          Network.step st ~send ~wake_after:1
        end
        else Network.step st ~wake_after:1
      end
    end
  in
  let max_rounds = (4 * n) + 8 in
  let states, stats =
    Network.run ?exec g
      ~bandwidth:(Network.congest_bandwidth n)
      ~msg_bits:(fun _ -> 2)
      ~init ~round ~max_rounds
  in
  {
    mate = Array.map (fun st -> st.mate) states;
    rounds_used = stats.Network.last_traffic_round;
    stats;
  }

let check (view : Cluster_view.t) (result : result) =
  let g = view.graph in
  let n = Graph.n g in
  let ok = ref true in
  for v = 0 to n - 1 do
    let m = result.mate.(v) in
    if m >= 0 then begin
      if result.mate.(m) <> v then ok := false;
      if not (Graph.mem_edge g v m) then ok := false;
      if view.labels.(v) <> view.labels.(m) then ok := false
    end
  done;
  (* maximality over intra-cluster edges *)
  Graph.iter_edges g (fun _ u v ->
      if
        view.labels.(u) = view.labels.(v)
        && result.mate.(u) < 0 && result.mate.(v) < 0
      then ok := false);
  !ok
