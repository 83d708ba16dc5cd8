open Sparse_graph
open Congest

type result = {
  owner : int array;
  out_degree : int array;
  phases : int;
  stats : Network.stats;
}

let bound ~density ~delta =
  int_of_float (ceil (2. *. (1. +. delta) *. density))

type state = {
  active_neighbors : int list;  (* intra-cluster neighbors not yet peeled *)
  peel_phase : int;             (* -1 while active *)
  notified : bool;
}

let run (view : Cluster_view.t) ~density ?(delta = 0.5) () =
  Obs.Span.with_ "distr.orientation" @@ fun () ->
  let g = view.graph in
  let n = Graph.n g in
  let threshold = bound ~density ~delta in
  let init (ctx : Network.ctx) =
    {
      active_neighbors = Array.to_list view.intra.(ctx.id);
      peel_phase = -1;
      notified = false;
    }
  in
  (* Each phase is one round: a vertex whose active degree is at most the
     threshold peels, announcing its phase; announcements received this
     round shrink the active set for the next decision. *)
  let round r (_ctx : Network.ctx) st inbox =
    let peeled_now = List.map fst inbox in
    let active =
      List.filter (fun w -> not (List.mem w peeled_now)) st.active_neighbors
    in
    let st = { st with active_neighbors = active } in
    if st.peel_phase >= 0 then
      (* already peeled and notified: absorb remaining notifications, halt
         once nothing more can arrive (one extra round is enough since every
         neighbor notifies exactly once) *)
      Network.step st ~halt:st.notified
    else if List.length active <= threshold then begin
      let st = { st with peel_phase = r; notified = true } in
      (* wake once more to halt after the notifications settle *)
      Network.step st
        ~send:(Cluster_view.flood view _ctx.id r)
        ~wake_after:1
    end
    else
      (* event-driven: the active degree only shrinks when a peel
         announcement arrives, so sleep on the inbox *)
      Network.step st
  in
  let max_rounds = (2 * n) + 4 in
  let states, stats =
    Network.run g
      ~bandwidth:(Network.congest_bandwidth n)
      ~msg_bits:(fun _ -> Bits.words n 1)
      ~init ~round ~max_rounds
  in
  let phase = Array.map (fun st -> st.peel_phase) states in
  let owner = Array.make (Graph.m g) (-1) in
  let out_degree = Array.make n 0 in
  Graph.iter_edges g (fun e u v ->
      if view.labels.(u) = view.labels.(v) then begin
        let o =
          if phase.(u) < phase.(v) then u
          else if phase.(v) < phase.(u) then v
          else min u v
        in
        owner.(e) <- o;
        out_degree.(o) <- out_degree.(o) + 1
      end);
  let phases = Array.fold_left max 0 phase in
  { owner; out_degree; phases; stats }

(* lint: allow U001 test oracle: intra edges owned, out-degree bounded *)
let check (view : Cluster_view.t) result ~density ~delta =
  let g = view.graph in
  let b = bound ~density ~delta in
  let ok = ref true in
  Graph.iter_edges g (fun e u v ->
      if view.labels.(u) = view.labels.(v) then begin
        if result.owner.(e) <> u && result.owner.(e) <> v then ok := false
      end
      else if result.owner.(e) <> -1 then ok := false);
  Array.iter (fun d -> if d > b then ok := false) result.out_degree;
  !ok
