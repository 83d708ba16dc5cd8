open Sparse_graph
open Congest

type result = {
  marked : bool array;
  stats : Network.stats;
}

type msg = Max of int | Mark

type state = {
  ball_max : int;
  neighbor_disagrees : bool;
  marked : bool;
  mark_fresh : bool;
}

let run (view : Cluster_view.t) ~b =
  Obs.Span.with_ "distr.diameter_check" @@ fun () ->
  let g = view.graph in
  let n = Graph.n g in
  (* rounds 1..b: flood max id; round b+1: exchange final ball max; round
     b+2: evaluate disagreement and start mark flood; rounds up to
     b+2+(2b+1): propagate marks *)
  let total_rounds = b + 2 + ((2 * b) + 1) in
  let init (ctx : Network.ctx) =
    {
      ball_max = ctx.id;
      neighbor_disagrees = false;
      marked = false;
      mark_fresh = false;
    }
  in
  let round r (ctx : Network.ctx) st inbox =
    let maxima =
      List.filter_map (function _, Max x -> Some x | _, Mark -> None) inbox
    in
    let heard_mark = List.exists (function _, Mark -> true | _ -> false) inbox in
    if r <= b then begin
      (* still growing the ball: fold in maxima, re-flood current max *)
      let bm = List.fold_left max st.ball_max maxima in
      let st = { st with ball_max = bm } in
      (* the ball-growing phase re-floods every round: tick via wake_after *)
      Network.step st
        ~send:(Cluster_view.flood view ctx.id (Max bm))
        ~wake_after:1
    end
    else if r = b + 1 then begin
      (* maxima from round b complete the ball; exchange the final value *)
      let bm = List.fold_left max st.ball_max maxima in
      let st = { st with ball_max = bm } in
      Network.step st
        ~send:(Cluster_view.flood view ctx.id (Max bm))
        ~wake_after:1
    end
    else if r = b + 2 then begin
      (* inbox now holds neighbors' final ball maxima *)
      let disagree = List.exists (fun x -> x <> st.ball_max) maxima in
      let marked = disagree in
      let st = { st with neighbor_disagrees = disagree; marked;
                 mark_fresh = marked } in
      let send =
        if marked then Cluster_view.flood view ctx.id Mark else []
      in
      Network.step st ~send ~wake_after:(total_rounds + 1 - r)
    end
    else if r <= total_rounds then begin
      let newly = heard_mark && not st.marked in
      let st = { st with marked = st.marked || heard_mark;
                 mark_fresh = newly } in
      let send =
        if newly then Cluster_view.flood view ctx.id Mark else []
      in
      (* mark propagation is message-driven; keep the halt-round timer *)
      Network.step st ~send ~wake_after:(total_rounds + 1 - r)
    end
    else
      Network.step { st with marked = st.marked || heard_mark } ~halt:true
  in
  let states, stats =
    Network.run g
      ~bandwidth:(Network.congest_bandwidth n)
      ~msg_bits:(function Max _ -> Bits.words n 1 | Mark -> 1)
      ~init ~round ~max_rounds:(total_rounds + 1)
  in
  { marked = Array.map (fun st -> st.marked) states; stats }

(* lint: allow U001 test oracle: marks match cluster diameters *)
let check (view : Cluster_view.t) (result : result) ~b =
  let g = view.graph in
  let n = Graph.n g in
  (* cluster diameters via centralized BFS over intra-cluster edges *)
  let clusters = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    let l = view.labels.(v) in
    let cur = try Hashtbl.find clusters l with Not_found -> [] in
    Hashtbl.replace clusters l (v :: cur)
  done;
  let intra_bfs src =
    let dist = Array.make n (-1) in
    let queue = Queue.create () in
    dist.(src) <- 0;
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      Array.iter
        (fun w ->
          if dist.(w) < 0 then begin
            dist.(w) <- dist.(v) + 1;
            Queue.add w queue
          end)
        view.intra.(v)
    done;
    dist
  in
  let ok = ref true in
  Hashtbl.iter
    (fun _ vs ->
      let diam =
        List.fold_left
          (fun acc v ->
            let d = intra_bfs v in
            List.fold_left
              (fun acc u -> if d.(u) > acc then d.(u) else acc)
              acc vs)
          0 vs
      in
      if diam <= b then
        List.iter (fun v -> if result.marked.(v) then ok := false) vs
      else if diam >= (2 * b) + 1 then
        List.iter (fun v -> if not result.marked.(v) then ok := false) vs)
    clusters;
  !ok
