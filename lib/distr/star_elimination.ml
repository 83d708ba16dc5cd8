open Congest

type result = {
  removed : bool array;
  iterations : int;
  stats : Network.stats;
}

type msg =
  | Pendant
  | Spoke of int * int
  | Bounce
  | Gone

type state = {
  live : int list;        (* live intra-cluster neighbors *)
  removed : bool;
  announced : bool;
}

let run (view : Cluster_view.t) ~max_iterations =
  Obs.Span.with_ "distr.star_elimination" @@ fun () ->
  let g = view.graph in
  let n = Sparse_graph.Graph.n g in
  let init (ctx : Network.ctx) =
    {
      live = Array.to_list view.intra.(ctx.id);
      removed = false;
      announced = false;
    }
  in
  let total_rounds = 3 * max_iterations in
  let round r (_ctx : Network.ctx) st inbox =
    if st.removed then begin
      (* announce once, then halt *)
      if st.announced then Network.step st ~halt:true
      else
        Network.step
          { st with announced = true }
          ~send:(List.map (fun w -> (w, Gone)) st.live)
          ~wake_after:1
    end
    else begin
      let gone =
        List.filter_map (function s, Gone -> Some s | _ -> None) inbox
      in
      let live = List.filter (fun w -> not (List.mem w gone)) st.live in
      let st = { st with live } in
      if r > total_rounds then Network.step st ~halt:true
      else begin
        (* event-driven wake: the next round where this vertex originates
           traffic on its own — the next token round for pendant / spoke
           candidates, otherwise the halt round (which is 1 mod 3, itself a
           token round); bounce and removal participation is message-driven *)
        let wake =
          match st.live with
          | [ _ ] | [ _; _ ] ->
              let d = (1 - r) mod 3 in
              if d <= 0 then d + 3 else d
          | _ -> total_rounds + 1 - r
        in
        match r mod 3 with
        | 1 ->
            (* token round: pendants and spokes announce themselves *)
            let send =
              match live with
              | [ c ] -> [ (c, Pendant) ]
              | [ a; b ] ->
                  let key = (Int.min a b, Int.max a b) in
                  [ (a, Spoke (fst key, snd key)); (b, Spoke (fst key, snd key)) ]
              | _ -> []
            in
            Network.step st ~send ~wake_after:wake
        | 2 ->
            (* bounce round: keep one pendant, two spokes per hub pair *)
            let pendants =
              List.filter_map
                (function s, Pendant -> Some s | _ -> None)
                inbox
            in
            let bounced_pendants =
              match List.sort compare pendants with
              | [] | [ _ ] -> []
              | _keep :: rest -> rest
            in
            let spokes = Hashtbl.create 4 in
            List.iter
              (function
                | s, Spoke (a, b) ->
                    let cur =
                      try Hashtbl.find spokes (a, b) with Not_found -> []
                    in
                    Hashtbl.replace spokes (a, b) (s :: cur)
                | _ -> ())
              inbox;
            (* sorted so the bounce list does not leak hash order into the
               message sequence *)
            let bounced_spokes =
              Hashtbl.fold
                (fun _ senders acc ->
                  match List.sort compare senders with
                  | _ :: _ :: rest -> rest @ acc
                  | _ -> acc)
                spokes []
              |> List.sort compare
            in
            let send =
              List.map (fun s -> (s, Bounce)) (bounced_pendants @ bounced_spokes)
            in
            Network.step st ~send ~wake_after:wake
        | _ ->
            (* removal round: a bounce means elimination *)
            let bounced =
              List.exists (function _, Bounce -> true | _ -> false) inbox
            in
            if bounced then
              Network.step
                { st with removed = true; announced = true }
                ~send:(List.map (fun w -> (w, Gone)) st.live)
                ~wake_after:1
            else Network.step st ~wake_after:wake
      end
    end
  in
  let states, stats =
    Network.run g
      ~bandwidth:(Network.congest_bandwidth n)
      ~msg_bits:(function
        | Pendant | Bounce | Gone -> 2
        | Spoke _ -> Bits.words n 2)
      ~init ~round ~max_rounds:(total_rounds + 1)
  in
  {
    removed = Array.map (fun st -> st.removed) states;
    iterations = max_iterations;
    stats;
  }

let check (view : Cluster_view.t) (result : result) =
  let g = view.graph in
  let n = Sparse_graph.Graph.n g in
  (* surviving intra-cluster degrees *)
  let live_neighbors v =
    Array.fold_right
      (fun w acc -> if result.removed.(w) then acc else w :: acc)
      view.intra.(v) []
  in
  let ok = ref true in
  (* no 2-star: no survivor has two surviving pendant neighbors *)
  let pendant_count = Array.make n 0 in
  for v = 0 to n - 1 do
    if not result.removed.(v) then
      match live_neighbors v with
      | [ c ] -> pendant_count.(c) <- pendant_count.(c) + 1
      | _ -> ()
  done;
  Array.iter (fun c -> if c >= 2 then ok := false) pendant_count;
  (* no 3-double-star *)
  let spokes = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    if not result.removed.(v) then
      match live_neighbors v with
      | [ a; b ] ->
          let key = (Int.min a b, Int.max a b) in
          let c = (try Hashtbl.find spokes key with Not_found -> 0) + 1 in
          Hashtbl.replace spokes key c;
          if c >= 3 then ok := false
      | _ -> ()
  done;
  !ok
