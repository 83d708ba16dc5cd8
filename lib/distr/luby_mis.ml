open Sparse_graph
open Congest

type result = {
  in_mis : bool array;
  phases : int;
  stats : Network.stats;
}

type status = Live | In_mis | Out

type state = {
  rng : Random.State.t;
  status : status;
  draw : int;
  live_neighbors : int list;
  phase : int;
}

type msg = Draw of int | Joined | Died

let run (view : Cluster_view.t) ~seed =
  Obs.Span.with_ "distr.luby_mis" @@ fun () ->
  let g = view.graph in
  let n = Graph.n g in
  let init (ctx : Network.ctx) =
    {
      rng = Random.State.make [| seed; ctx.id; 104729 |];
      status = Live;
      draw = 0;
      live_neighbors = Array.to_list view.intra.(ctx.id);
      phase = 0;
    }
  in
  (* Each phase spans two rounds: odd rounds broadcast a fresh draw; even
     rounds compare draws, winners join and announce Joined, neighbors of
     winners announce Died in the next odd round before going silent.
     Live vertices originate a draw on every odd round whether or not
     anything arrived, so every non-halting step wakes the vertex for the
     next round. *)
  let round r (ctx : Network.ctx) st inbox =
    match st.status with
    | In_mis | Out -> Network.step st ~halt:true
    | Live ->
        let joined_neighbor =
          List.exists (function _, Joined -> true | _ -> false) inbox
        in
        let died =
          List.filter_map (function s, Died -> Some s | _ -> None) inbox
        in
        let live =
          List.filter (fun w -> not (List.mem w died)) st.live_neighbors
        in
        let st = { st with live_neighbors = live } in
        if joined_neighbor then begin
          (* a neighbor joined: die, tell remaining live neighbors *)
          let st = { st with status = Out } in
          Network.step st ~wake_after:1
            ~send:(List.map (fun w -> (w, Died)) st.live_neighbors)
        end
        else if r mod 2 = 1 then begin
          let draw = Random.State.bits st.rng in
          let st = { st with draw; phase = st.phase + 1 } in
          Network.step st ~wake_after:1
            ~send:(List.map (fun w -> (w, Draw draw)) st.live_neighbors)
        end
        else begin
          let draws =
            List.filter_map (function s, Draw d -> Some (s, d) | _ -> None)
              inbox
          in
          (* winner: strictly smallest (draw, id) among live neighborhood *)
          let mine = (st.draw, ctx.id) in
          let wins =
            List.for_all (fun (s, d) -> mine < (d, s)) draws
          in
          if wins then begin
            let st = { st with status = In_mis } in
            Network.step st ~wake_after:1
              ~send:(List.map (fun w -> (w, Joined)) st.live_neighbors)
          end
          else Network.step st ~wake_after:1
        end
  in
  let max_rounds = 8 * (int_of_float (log (float_of_int (max 2 n)) /. log 2.) + 4) in
  let states, stats =
    Network.run g
      ~bandwidth:(Network.congest_bandwidth n)
      ~msg_bits:(function Draw _ -> 2 * Bits.id_bits n | Joined | Died -> 2)
      ~init ~round ~max_rounds
  in
  {
    in_mis = Array.map (fun st -> st.status = In_mis) states;
    phases = Array.fold_left (fun acc st -> max acc st.phase) 0 states;
    stats;
  }

let check (view : Cluster_view.t) (result : result) =
  let g = view.graph in
  let ok = ref true in
  (* independence *)
  Graph.iter_edges g (fun _ u v ->
      if
        view.labels.(u) = view.labels.(v)
        && result.in_mis.(u) && result.in_mis.(v)
      then ok := false);
  (* maximality: every non-member has a member among intra neighbors *)
  for v = 0 to Graph.n g - 1 do
    if not result.in_mis.(v) then begin
      let dominated =
        Array.exists (fun w -> result.in_mis.(w)) view.intra.(v)
      in
      if not dominated then ok := false
    end
  done;
  !ok
