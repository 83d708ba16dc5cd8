open Sparse_graph
open Congest

type result = {
  partition : Decomp.Partition.t;
  stats : Network.stats;
}

type state = {
  owner : int;      (* -1 until claimed *)
  fresh : bool;
  start : int;      (* round at which this vertex's own flood starts *)
}

let run ?exec (view : Cluster_view.t) ~beta ~seed =
  if beta <= 0. then invalid_arg "Mpx_clustering.run: beta must be > 0";
  Obs.Span.with_ "distr.mpx_clustering" @@ fun () ->
  let g = view.graph in
  let n = Graph.n g in
  let intra = Array.init n (fun v -> Cluster_view.intra_neighbors view v) in
  let st = Random.State.make [| seed; 15331 |] in
  let delta =
    Array.init n (fun _ ->
        let u = max 1e-12 (Random.State.float st 1.) in
        -.log u /. beta)
  in
  let delta_max = Array.fold_left max 0. delta in
  let start =
    Array.map (fun d -> 1 + int_of_float (ceil (delta_max -. d))) delta
  in
  let horizon = 2 + Array.fold_left max 1 start + n in
  let init (ctx : Network.ctx) =
    { owner = -1; fresh = false; start = start.(ctx.id) }
  in
  let round r (ctx : Network.ctx) st inbox =
    let v = ctx.id in
    (* adopt the smallest origin among this round's arrivals *)
    let arrivals = List.map snd inbox in
    let st =
      if st.owner >= 0 then st
      else begin
        let candidates =
          if r >= st.start then v :: arrivals else arrivals
        in
        match List.sort compare candidates with
        | [] -> st
        | o :: _ -> { st with owner = o; fresh = true }
      end
    in
    if st.fresh then
      Network.step
        { st with fresh = false }
        ~send:(List.map (fun w -> (w, st.owner)) intra.(v))
    else if (st.owner >= 0 && r > horizon) || intra.(v) = [] then
      Network.step st ~halt:true
    else if st.owner < 0 && st.start > r then
      (* event-driven: an unclaimed vertex sleeps until a flood reaches it
         or its own delayed start round arrives *)
      Network.step st ~wake_after:(st.start - r)
    else Network.step st
  in
  let states, stats =
    Network.run ?exec g
      ~bandwidth:(Network.congest_bandwidth n)
      ~msg_bits:(fun _ -> Bits.words n 1)
      ~init ~round ~max_rounds:horizon
  in
  let labels =
    Array.mapi
      (fun v st -> if st.owner >= 0 then st.owner else v)
      states
  in
  { partition = Decomp.Partition.of_labels g labels; stats }
