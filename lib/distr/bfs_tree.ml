open Sparse_graph
open Congest

type result = {
  parent : int array;
  depth : int array;
  stats : Network.stats;
}

type state = {
  parent : int;
  depth : int;
  announced : bool;
}

let run ?exec (view : Cluster_view.t) ~roots ~rounds =
  Obs.Span.with_ "distr.bfs_tree" @@ fun () ->
  let g = view.graph in
  let n = Graph.n g in
  let intra = Array.init n (fun v -> Cluster_view.intra_neighbors view v) in
  let init (ctx : Network.ctx) =
    if roots.(ctx.id) then { parent = ctx.id; depth = 0; announced = false }
    else { parent = -1; depth = -1; announced = false }
  in
  let round r (ctx : Network.ctx) st inbox =
    (* adopt the smallest-id sender as parent if not yet reached *)
    let st =
      if st.parent >= 0 then st
      else
        match inbox with
        | [] -> st
        | (sender, d) :: _ -> { parent = sender; depth = d + 1; announced = false }
    in
    (* event-driven: unreached vertices sleep on their inbox; everyone
       keeps a timer for round [rounds + 1], where the run halts *)
    if r > rounds then Network.step st ~halt:true
    else if st.parent >= 0 && not st.announced then
      Network.step
        { st with announced = true }
        ~send:(List.map (fun w -> (w, st.depth)) intra.(ctx.id))
        ~wake_after:(rounds + 1 - r)
    else Network.step st ~wake_after:(rounds + 1 - r)
  in
  let states, stats =
    Network.run ?exec g
      ~bandwidth:(Network.congest_bandwidth n)
      ~msg_bits:(fun _ -> Bits.words n 1)
      ~init ~round ~max_rounds:(rounds + 1)
  in
  {
    parent = Array.map (fun st -> st.parent) states;
    depth = Array.map (fun st -> st.depth) states;
    stats;
  }

(* ------------------------------------------------------------------ *)
(* Retry-hardened variant: instead of a one-shot announcement, every     *)
(* attached vertex heartbeats its current depth to all intra neighbors   *)
(* each round. The per-round refresh is the retransmission (a dropped    *)
(* heartbeat is re-sent next round), re-parenting to any strictly        *)
(* better neighbor converges depths to true BFS distances, and a parent  *)
(* whose heartbeat goes silent for [patience] rounds is presumed         *)
(* crashed: the subtree orphans itself and re-roots onto the live tree.  *)
(* ------------------------------------------------------------------ *)

type hstate = {
  hparent : int;
  hdepth : int;
  last_heard : int;  (* round the parent's heartbeat was last received *)
}

let run_reliable ?faults ?exec ?(patience = 6) (view : Cluster_view.t) ~roots
    ~rounds =
  Obs.Span.with_ "distr.bfs_tree_reliable" @@ fun () ->
  let g = view.graph in
  let n = Graph.n g in
  let intra = Array.init n (fun v -> Cluster_view.intra_neighbors view v) in
  let init (ctx : Network.ctx) =
    if roots.(ctx.id) then { hparent = ctx.id; hdepth = 0; last_heard = 0 }
    else { hparent = -1; hdepth = -1; last_heard = 0 }
  in
  let round r (ctx : Network.ctx) st inbox =
    let self = ctx.id in
    let is_root = roots.(self) in
    (* follow the parent's announced depth; note when it was heard *)
    let st =
      if is_root then st
      else
        List.fold_left
          (fun st (sender, d) ->
            if sender = st.hparent then
              { st with hdepth = d + 1; last_heard = r }
            else st)
          st inbox
    in
    (* re-parent to the strictly best offer (min depth, then min id) *)
    let st =
      if is_root then st
      else
        List.fold_left
          (fun st (sender, d) ->
            if d >= 0 && (st.hdepth < 0 || d + 1 < st.hdepth) then
              { hparent = sender; hdepth = d + 1; last_heard = r }
            else st)
          st inbox
    in
    (* crash detection: a silent parent orphans the vertex *)
    let st =
      if
        (not is_root) && st.hparent >= 0
        && r - st.last_heard > patience
      then { st with hparent = -1; hdepth = -1 }
      else st
    in
    let send =
      if st.hdepth >= 0 then List.map (fun w -> (w, st.hdepth)) intra.(self)
      else []
    in
    (* the heartbeat refresh each round IS the retransmission mechanism,
       so every vertex wakes every round *)
    Network.step st ~send ~halt:(r > rounds) ~wake_after:1
  in
  let states, stats =
    Network.run ?faults ?exec g
      ~bandwidth:(Network.congest_bandwidth ~c:16 n)
      ~msg_bits:(fun _ -> Bits.words n 1)
      ~init ~round ~max_rounds:(rounds + 1)
  in
  {
    parent = Array.map (fun st -> st.hparent) states;
    depth = Array.map (fun st -> st.hdepth) states;
    stats;
  }

let check (view : Cluster_view.t) (result : result) ~roots =
  let g = view.graph in
  let n = Graph.n g in
  (* centralized multi-source BFS restricted to intra-cluster edges *)
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if roots.(v) then begin
      dist.(v) <- 0;
      Queue.add v queue
    end
  done;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun w ->
        if dist.(w) < 0 then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w queue
        end)
      (Cluster_view.intra_neighbors view v)
  done;
  let ok = ref true in
  for v = 0 to n - 1 do
    if result.depth.(v) <> dist.(v) then ok := false;
    if result.parent.(v) >= 0 && result.parent.(v) <> v then begin
      (* parent must be an intra-cluster neighbor one level up *)
      if view.labels.(result.parent.(v)) <> view.labels.(v) then ok := false;
      if not (Graph.mem_edge g v result.parent.(v)) then ok := false;
      if result.depth.(result.parent.(v)) <> result.depth.(v) - 1 then
        ok := false
    end
  done;
  !ok
