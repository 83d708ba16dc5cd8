open Sparse_graph
open Congest

type result = {
  edges_at_leader : (int * (int * int) list) list;
  rounds : int;
  max_message_bits : int;
  stats : Network.stats;
}

type msg =
  | Depth of int
  | Child
  | Payload of (int * int) list

type state = {
  parent : int;          (* -1 until adopted; leader's parent is itself *)
  adopt_round : int;
  children : int list;
  received : (int * int) list list;  (* payloads from children *)
  reported : int list;               (* children that reported *)
  sent_up : bool;
  collected : (int * int) list;      (* leader only *)
}

let run (view : Cluster_view.t) ~leader_of ~rounds_budget =
  Obs.Span.with_ "distr.local_gather" @@ fun () ->
  let g = view.graph in
  let n = Graph.n g in
  (* each vertex contributes its intra-cluster edges to larger neighbors *)
  let own_edges =
    Array.init n (fun v ->
        Array.fold_right
          (fun w acc -> if w > v then (v, w) :: acc else acc)
          view.intra.(v) [])
  in
  let init (ctx : Network.ctx) =
    let v = ctx.id in
    if leader_of.(v) = v then
      { parent = v; adopt_round = 0; children = []; received = [];
        reported = []; sent_up = false; collected = own_edges.(v) }
    else
      { parent = -1; adopt_round = -1; children = []; received = [];
        reported = []; sent_up = false; collected = [] }
  in
  let round r (ctx : Network.ctx) st inbox =
    let v = ctx.id in
    (* absorb structural messages *)
    let new_children =
      List.filter_map (function s, Child -> Some s | _ -> None) inbox
    in
    let payloads =
      List.filter_map
        (function s, Payload l -> Some (s, l) | _ -> None)
        inbox
    in
    let st =
      { st with
        children = new_children @ st.children;
        received = List.map snd payloads @ st.received;
        reported = List.map fst payloads @ st.reported }
    in
    let st =
      if leader_of.(v) = v then
        { st with
          collected = List.concat (List.map snd payloads) @ st.collected }
      else st
    in
    (* adoption *)
    let adopting =
      if st.parent >= 0 then None
      else
        match
          List.filter_map (function s, Depth d -> Some (s, d) | _ -> None)
            inbox
        with
        | [] -> None
        | (s, d) :: _ -> Some (s, d)
    in
    let st, announce =
      match adopting with
      | Some (s, d) ->
          ({ st with parent = s; adopt_round = r }, Some (d + 1))
      | None ->
          if leader_of.(v) = v && r = 1 then (st, Some 0) else (st, None)
    in
    if r > rounds_budget then Network.step st ~halt:true
    else begin
      let send = ref [] in
      (match announce with
      | Some depth ->
          Array.iter
            (fun w -> send := (w, Depth depth) :: !send)
            view.intra.(v);
          if st.parent >= 0 && st.parent <> v then
            send := (st.parent, Child) :: !send
      | None -> ());
      (* event-driven wake: the convergecast trigger below first becomes
         evaluable at adopt_round + 2 (a childless vertex sees no message
         then), so keep a timer until that round; afterwards every relevant
         re-evaluation is caused by an arriving payload *)
      let wake st =
        if
          st.parent >= 0 && st.parent <> v && (not st.sent_up)
          && r < st.adopt_round + 2
        then Some (st.adopt_round + 2 - r)
        else None
      in
      (* convergecast: children final two rounds after our announcement *)
      let children_final =
        st.adopt_round >= 0 && r >= st.adopt_round + 2
      in
      if
        (not st.sent_up) && st.parent >= 0 && st.parent <> v && children_final
        && List.length st.reported >= List.length st.children
      then begin
        let payload = own_edges.(v) @ List.concat st.received in
        send := (st.parent, Payload payload) :: !send;
        let st = { st with sent_up = true } in
        Network.step st ~send:!send ?wake_after:(wake st)
      end
      else Network.step st ~send:!send ?wake_after:(wake st)
    end
  in
  let idb = Bits.id_bits n in
  let states, stats =
    Network.run g ~bandwidth:Network.Local
      ~msg_bits:(function
        | Depth _ -> idb
        | Child -> 1
        | Payload l -> max 1 (2 * idb * List.length l))
      ~init ~round ~max_rounds:rounds_budget
  in
  let edges_at_leader = ref [] in
  Array.iteri
    (fun v st ->
      if leader_of.(v) = v then
        edges_at_leader :=
          (v, List.sort_uniq compare st.collected) :: !edges_at_leader)
    states;
  {
    edges_at_leader = List.rev !edges_at_leader;
    rounds = stats.Network.last_traffic_round;
    max_message_bits = stats.Network.max_edge_bits;
    stats;
  }
