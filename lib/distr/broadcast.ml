open Sparse_graph
open Congest

type result = {
  received : int array;
  stats : Network.stats;
}

(* Every informed vertex offers its value to each intra neighbor through
   the Reliable ack/retry transport, so the flood survives message drops
   and duplication. One payload per neighbor ever enters the queue, so
   the per-edge load stays within the CONGEST budget (payload + acks).
   The fault-free flood is {!Bfs_tree.run}: the same one word per edge. *)

type rstate = {
  rvalue : int;
  rel : int Reliable.t;
  offered : bool;
}

let run_reliable ?faults (view : Cluster_view.t) ~sources ~rounds =
  Obs.Span.with_ "distr.broadcast_reliable" @@ fun () ->
  let g = view.graph in
  let n = Graph.n g in
  let w = Bits.id_bits n in
  let init (ctx : Network.ctx) =
    {
      rvalue = (match sources.(ctx.id) with Some x -> x | None -> -1);
      rel = Reliable.create ();
      offered = false;
    }
  in
  let round r (ctx : Network.ctx) st inbox =
    let rel, fresh, acks = Reliable.deliver st.rel inbox in
    let rvalue =
      if st.rvalue >= 0 then st.rvalue
      else match fresh with [] -> -1 | (_, x) :: _ -> x
    in
    let rel, offered =
      if rvalue >= 0 && not st.offered then
        ( Array.fold_left
            (fun rel dst -> Reliable.send rel ~dst rvalue)
            rel view.intra.(ctx.id),
          true )
      else (rel, st.offered)
    in
    let rel, out = Reliable.flush rel ~now:r in
    (* the retry transport re-offers from its queue on a clock of its own,
       so every vertex wakes every round *)
    Network.step { rvalue; rel; offered } ~send:(acks @ out)
      ~halt:(r > rounds) ~wake_after:1
  in
  let states, stats =
    Network.run ?faults g
      ~bandwidth:(Network.congest_bandwidth ~c:16 n)
      ~msg_bits:(Reliable.packet_bits ~word:w ~body:(fun _ -> w))
      ~init ~round ~max_rounds:(rounds + 1)
  in
  { received = Array.map (fun st -> st.rvalue) states; stats }

let check (view : Cluster_view.t) result ~sources =
  let n = Graph.n view.graph in
  (* expected value per vertex: flood sources along intra-cluster edges *)
  let expected = Array.make n (-1) in
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    match sources.(v) with
    | Some x ->
        expected.(v) <- x;
        Queue.add v queue
    | None -> ()
  done;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun w ->
        if expected.(w) < 0 then begin
          expected.(w) <- expected.(v);
          Queue.add w queue
        end)
      view.intra.(v)
  done;
  let ok = ref true in
  for v = 0 to n - 1 do
    if result.received.(v) <> expected.(v) then ok := false
  done;
  !ok
