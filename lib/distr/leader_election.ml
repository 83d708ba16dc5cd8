open Sparse_graph
open Congest

type result = {
  leader_of : int array;
  leader_deg : int array;
  stats : Network.stats;
}

(* state: best (deg, id) pair seen; changed flag controls re-broadcast *)
type state = {
  best_deg : int;
  best_id : int;
  changed : bool;
}

let better ((d1 : int), (i1 : int)) (d2, i2) = d1 > d2 || (d1 = d2 && i1 > i2)

let run (view : Cluster_view.t) ~rounds =
  Obs.Span.with_ "distr.leader_election" @@ fun () ->
  let g = view.graph in
  let n = Graph.n g in
  let init (ctx : Network.ctx) =
    {
      best_deg = Cluster_view.intra_degree view ctx.id;
      best_id = ctx.id;
      changed = true;
    }
  in
  let round r (ctx : Network.ctx) st inbox =
    let best =
      List.fold_left
        (fun (d, i) (_, (d', i')) -> if better (d', i') (d, i) then (d', i') else (d, i))
        (st.best_deg, st.best_id) inbox
    in
    let bd, bi = best in
    let changed = bd <> st.best_deg || bi <> st.best_id || r = 1 in
    let st' = { best_deg = bd; best_id = bi; changed } in
    (* event-driven: a vertex whose belief is stable sleeps on its inbox;
       everyone keeps a timer for round [rounds + 1], where the run halts *)
    if r > rounds then Network.step st' ~halt:true
    else begin
      let send =
        if changed then Cluster_view.flood view ctx.id (bd, bi)
        else []
      in
      Network.step st' ~send ~wake_after:(rounds + 1 - r)
    end
  in
  let states, stats =
    Network.run g
      ~bandwidth:(Network.congest_bandwidth n)
      ~msg_bits:(fun _ -> Bits.words n 2)
      ~init ~round ~max_rounds:(rounds + 1)
  in
  {
    leader_of = Array.map (fun st -> st.best_id) states;
    leader_deg = Array.map (fun st -> st.best_deg) states;
    stats;
  }

(* ------------------------------------------------------------------ *)
(* Retry-hardened variant: candidate gossip goes through the Reliable    *)
(* ack/retry transport (a dropped announcement retransmits until         *)
(* acked), and the current leader floods a per-round heartbeat that      *)
(* doubles as gossip. A vertex that stops hearing its leader's           *)
(* heartbeat for [patience] rounds declares it dead, never re-adopts     *)
(* it, and re-elects: gossip re-converges on the best live candidate.    *)
(* ------------------------------------------------------------------ *)

type rmsg =
  | Hb of int * int * int  (* candidate deg, id, heartbeat round *)
  | Pkt of (int * int) Reliable.packet

type estate = {
  ebest_deg : int;
  ebest_id : int;
  dead : int list;  (* evicted candidates, never re-adopted *)
  erel : (int * int) Reliable.t;
  eheard : int;  (* round the current best's heartbeat was last heard *)
  forwarded : int;  (* newest heartbeat round already forwarded *)
}

let run_reliable ?faults ~patience (view : Cluster_view.t) ~rounds =
  Obs.Span.with_ "distr.leader_election_reliable" @@ fun () ->
  let g = view.graph in
  let n = Graph.n g in
  let init (ctx : Network.ctx) =
    {
      ebest_deg = Cluster_view.intra_degree view ctx.id;
      ebest_id = ctx.id;
      dead = [];
      erel = Reliable.create ();
      eheard = 0;
      forwarded = 0;
    }
  in
  let gossip_all st self (deg, id) =
    Array.fold_left
      (fun rel dst -> Reliable.send (Reliable.cancel rel ~dst) ~dst (deg, id))
      st.erel view.intra.(self)
  in
  let round r (ctx : Network.ctx) st inbox =
    let self = ctx.id in
    let hbs = List.filter_map (function s, Hb (d, i, h) -> Some (s, (d, i, h)) | _ -> None) inbox in
    let pkts = List.filter_map (function s, Pkt p -> Some (s, p) | _ -> None) inbox in
    let erel, fresh, acks = Reliable.deliver st.erel pkts in
    let st = { st with erel } in
    (* every candidate sighting this round: reliable gossip + heartbeats *)
    let candidates =
      List.map snd fresh @ List.map (fun (_, (d, i, _)) -> (d, i)) hbs
    in
    let best =
      List.fold_left
        (fun (d, i) (d', i') ->
          if (not (List.mem i' st.dead)) && better (d', i') (d, i) then
            (d', i')
          else (d, i))
        (st.ebest_deg, st.ebest_id)
        candidates
    in
    let bd, bi = best in
    let changed = bd <> st.ebest_deg || bi <> st.ebest_id in
    (* heartbeat bookkeeping for the (possibly new) best *)
    let heard_hb =
      List.fold_left
        (fun acc (_, (_, i, h)) -> if i = bi then max acc h else acc)
        (-1) hbs
    in
    let st =
      {
        st with
        ebest_deg = bd;
        ebest_id = bi;
        eheard = (if changed || heard_hb >= 0 then r else st.eheard);
      }
    in
    (* eviction: the believed leader went silent — declare it dead,
       fall back to self and re-gossip; gossip re-elects the best
       survivor *)
    let st =
      if st.ebest_id <> self && r - st.eheard > patience then
        let my = (Cluster_view.intra_degree view self, self) in
        {
          st with
          ebest_deg = fst my;
          ebest_id = snd my;
          dead = st.ebest_id :: st.dead;
          eheard = r;
          forwarded = 0;
        }
      else st
    in
    (* announce a changed belief through the reliable transport *)
    let st =
      if changed || r = 1 then
        { st with erel = gossip_all st self (st.ebest_deg, st.ebest_id) }
      else st
    in
    (* heartbeats: the self-believed leader originates one every round;
       followers forward each newly seen heartbeat once (flood) *)
    let hb_out, st =
      if st.ebest_id = self then
        (Cluster_view.flood view self (Hb (st.ebest_deg, self, r)), st)
      else begin
        let newest =
          List.fold_left
            (fun acc (_, (_, i, h)) -> if i = st.ebest_id then max acc h else acc)
            (-1) hbs
        in
        if newest > st.forwarded then
          ( Cluster_view.flood view self
              (Hb (st.ebest_deg, st.ebest_id, newest)),
            { st with forwarded = newest } )
        else ([], st)
      end
    in
    let erel, out = Reliable.flush ~max_per_dst:1 st.erel ~now:r in
    (* leader heartbeats originate on the wall clock and the retry
       transport retransmits from its own timers, so every vertex wakes
       every round *)
    Network.step { st with erel }
      ~send:
        (List.map (fun (w, a) -> (w, Pkt a)) acks
        @ hb_out
        @ List.map (fun (w, p) -> (w, Pkt p)) out)
      ~halt:(r > rounds) ~wake_after:1
  in
  let states, stats =
    Network.run ?faults g
      ~bandwidth:(Network.congest_bandwidth ~c:16 n)
      ~msg_bits:(fun m ->
        match m with
        | Hb _ -> Bits.words n 3
        | Pkt p -> Reliable.packet_bits ~word:(Bits.id_bits n) ~body:(fun _ -> Bits.words n 2) p)
      ~init ~round ~max_rounds:(rounds + 1)
  in
  {
    leader_of = Array.map (fun st -> st.ebest_id) states;
    leader_deg = Array.map (fun st -> st.ebest_deg) states;
    stats;
  }

let check (view : Cluster_view.t) result =
  let g = view.graph in
  let n = Graph.n g in
  let ok = ref true in
  (* group vertices by cluster *)
  let tbl = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    let l = view.labels.(v) in
    let cur = try Hashtbl.find tbl l with Not_found -> [] in
    Hashtbl.replace tbl l (v :: cur)
  done;
  Hashtbl.iter
    (fun _ vs ->
      match vs with
      | [] -> ()
      | v0 :: _ ->
          let leader = result.leader_of.(v0) in
          (* agreement *)
          List.iter
            (fun v -> if result.leader_of.(v) <> leader then ok := false)
            vs;
          (* membership *)
          if not (List.mem leader vs) then ok := false;
          (* maximality, ties to larger id *)
          let ld = Cluster_view.intra_degree view leader in
          List.iter
            (fun v ->
              let d = Cluster_view.intra_degree view v in
              if d > ld || (d = ld && v > leader) then ok := false)
            vs)
    tbl;
  !ok
