open Sparse_graph
open Congest

type result = {
  received : int array;
  stats : Network.stats;
}

type state = {
  value : int;
  fresh : bool;
}

let run ?exec (view : Cluster_view.t) ~sources ~rounds =
  Obs.Span.with_ "distr.broadcast" @@ fun () ->
  let g = view.graph in
  let n = Graph.n g in
  let intra = Array.init n (fun v -> Cluster_view.intra_neighbors view v) in
  let init (ctx : Network.ctx) =
    match sources.(ctx.id) with
    | Some x -> { value = x; fresh = true }
    | None -> { value = -1; fresh = false }
  in
  let round r (ctx : Network.ctx) st inbox =
    let st =
      if st.value >= 0 then st
      else
        match inbox with
        | [] -> st
        | (_, x) :: _ -> { value = x; fresh = true }
    in
    (* event-driven: idle vertices sleep on their inbox and set a timer
       for round [rounds + 1], where everyone halts *)
    if r > rounds then Network.step st ~halt:true
    else if st.fresh then
      Network.step
        { st with fresh = false }
        ~send:(List.map (fun w -> (w, st.value)) intra.(ctx.id))
        ~wake_after:(rounds + 1 - r)
    else Network.step st ~wake_after:(rounds + 1 - r)
  in
  let states, stats =
    Network.run ?exec g
      ~bandwidth:(Network.congest_bandwidth n)
      ~msg_bits:(fun _ -> Bits.words n 1)
      ~init ~round ~max_rounds:(rounds + 1)
  in
  { received = Array.map (fun st -> st.value) states; stats }

(* ------------------------------------------------------------------ *)
(* Retry-hardened variant: every informed vertex offers its value to     *)
(* each intra neighbor through the Reliable ack/retry transport, so the  *)
(* flood survives message drops and duplication. One payload per         *)
(* neighbor ever enters the queue, so the per-edge load stays within     *)
(* the CONGEST budget (payload + acks).                                  *)
(* ------------------------------------------------------------------ *)

type rstate = {
  rvalue : int;
  rel : int Reliable.t;
  offered : bool;
}

let run_reliable ?faults ?exec (view : Cluster_view.t) ~sources ~rounds =
  Obs.Span.with_ "distr.broadcast_reliable" @@ fun () ->
  let g = view.graph in
  let n = Graph.n g in
  let w = Bits.id_bits n in
  let intra = Array.init n (fun v -> Cluster_view.intra_neighbors view v) in
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
        ( List.fold_left
            (fun rel dst -> Reliable.send rel ~dst rvalue)
            rel intra.(ctx.id),
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
    Network.run ?faults ?exec g
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
    List.iter
      (fun w ->
        if expected.(w) < 0 then begin
          expected.(w) <- expected.(v);
          Queue.add w queue
        end)
      (Cluster_view.intra_neighbors view v)
  done;
  let ok = ref true in
  for v = 0 to n - 1 do
    if result.received.(v) <> expected.(v) then ok := false
  done;
  !ok
