open Sparse_graph
open Congest

type result = {
  delivered : (int * Walk_routing.token list) list;
  undelivered : int;
  stats : Network.stats;
}

type msg =
  | BDepth of int
  | Tok of Walk_routing.token

type state = {
  parent : int;
  depth : int;
  announced : bool;
  queue : Walk_routing.token list;
  absorbed : Walk_routing.token list;
}

let run (view : Cluster_view.t) ~leader_of ~tokens_of ~max_rounds =
  Obs.Span.with_ "distr.tree_routing" @@ fun () ->
  let g = view.graph in
  let n = Graph.n g in
  let budget =
    match Network.congest_bandwidth n with
    | Network.Congest b -> b
    | Network.Local -> max_int
  in
  let token_bits = Bits.words n 2 in
  (* leave room for one BFS announcement sharing the edge in early rounds *)
  let capacity = max 1 ((budget - Bits.id_bits n) / token_bits) in
  let init (ctx : Network.ctx) =
    let v = ctx.id in
    let own =
      List.init (tokens_of v) (fun seq -> { Walk_routing.origin = v; seq })
    in
    if leader_of.(v) = v then
      { parent = v; depth = 0; announced = false; queue = []; absorbed = own }
    else
      { parent = -1; depth = -1; announced = false; queue = own; absorbed = [] }
  in
  let round _r (ctx : Network.ctx) st inbox =
    let v = ctx.id in
    (* absorb *)
    let st =
      List.fold_left
        (fun st (s, m) ->
          match m with
          | BDepth d ->
              if st.parent < 0 then { st with parent = s; depth = d + 1 }
              else st
          | Tok t ->
              if leader_of.(v) = v then { st with absorbed = t :: st.absorbed }
              else { st with queue = t :: st.queue })
        st inbox
    in
    let send = ref [] in
    let st =
      if st.parent >= 0 && not st.announced then begin
        Array.iter
          (fun w -> send := (w, BDepth st.depth) :: !send)
          view.intra.(v);
        { st with announced = true }
      end
      else st
    in
    let st =
      if st.parent >= 0 && st.parent <> v && st.queue <> [] then begin
        let rec take k acc rest =
          match rest with
          | [] -> (List.rev acc, [])
          | _ when k = 0 -> (List.rev acc, rest)
          | t :: tl -> take (k - 1) (t :: acc) tl
        in
        let now, later = take capacity [] st.queue in
        List.iter (fun t -> send := (st.parent, Tok t) :: !send) now;
        { st with queue = later }
      end
      else st
    in
    (* event-driven: an attached vertex drains its queue toward the parent
       every round; otherwise adoption and token receipt are message-driven *)
    Network.step st ~send:!send
      ?wake_after:
        (if st.parent >= 0 && st.parent <> v && st.queue <> [] then Some 1
         else None)
  in
  let states, stats =
    Network.run g
      ~bandwidth:(Network.congest_bandwidth n)
      ~msg_bits:(function BDepth _ -> Bits.id_bits n | Tok _ -> token_bits)
      ~init ~round ~max_rounds
  in
  let delivered = ref [] in
  let undelivered = ref 0 in
  Array.iteri
    (fun v st ->
      if leader_of.(v) = v && st.absorbed <> [] then
        delivered := (v, st.absorbed) :: !delivered;
      undelivered := !undelivered + List.length st.queue)
    states;
  { delivered = List.rev !delivered; undelivered = !undelivered; stats }

let delivery_rate (view : Cluster_view.t) ~tokens_of result =
  let total = ref 0 in
  for v = 0 to Graph.n view.graph - 1 do
    total := !total + tokens_of v
  done;
  if !total = 0 then 1.
  else begin
    let got =
      List.fold_left (fun acc (_, ts) -> acc + List.length ts) 0
        result.delivered
    in
    float_of_int got /. float_of_int !total
  end
