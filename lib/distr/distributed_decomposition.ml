open Sparse_graph
open Congest

type t = {
  labels : int array;
  k : int;
  inter_edges : int list;
  epsilon : float;
  tau : float;
  levels : int;
  total_rounds : int;
  total_messages : int;
  max_edge_bits : int;
}

(* C, the candidate sweep levels per embedding, and the level cap *)
let candidates = 16
let max_levels = 40

(* ------------------------------------------------------------------ *)
(* One level: every cluster runs the phased spectral-cut protocol in    *)
(* parallel, in a single CONGEST execution                              *)
(* ------------------------------------------------------------------ *)

type msg =
  | BDepth of int                (* BFS flooding *)
  | Deg of int                   (* intra-degree exchange *)
  | Agg of int * float array     (* convergecast partial (block id, sums) *)
  | Res of int * float array     (* broadcast result *)
  | Xval of float                (* eigenvector neighbor exchange *)
  | Yval of float * int          (* embedding value + BFS depth *)

type vstate = {
  depth : int;                   (* -1 until reached *)
  parent : int;
  announced : bool;
  nbr_deg : (int * int) list;    (* neighbor -> intra-degree *)
  x : float;
  sqd : float;                   (* sqrt of own intra-degree *)
  vol : float;                   (* cluster volume, after init block *)
  nbr_x : (int * float) list;
  nbr_y : (int * (float * int)) list;
  y : float;
  acc : float array;             (* current block accumulator *)
  acc_block : int;
  results : (int * float array) list;  (* delivered block results *)
  forwarded : int list;          (* block ids already re-broadcast *)
  side : bool;
  split : bool;
}

(* element-wise merge; block [minmax_bid] uses min/max lanes *)
let merge ~minmax_bid bid a b =
  Array.mapi
    (fun i x ->
      if bid = minmax_bid then
        if i mod 2 = 0 then min x b.(i) else max x b.(i)
      else x +. b.(i))
    a

let run_level (view : Cluster_view.t) ~leader_of ~b ~t ~c ~tau ~seed =
  let g = view.graph in
  let n = Graph.n g in
  let intra = view.intra in
  let agg_len = (2 * b) + 2 in
  let init_start = b + 2 in
  let power_start k = init_start + agg_len + ((k - 1) * (agg_len + 1)) in
  let minmax_start = power_start (t + 1) in
  let yexch_round = minmax_start + agg_len in
  let cand_start j = yexch_round + 1 + (j * agg_len) in
  let decision_start = cand_start (2 * c) in
  let total_rounds = decision_start + b + 2 in
  let init_bid = 0 in
  let power_bid k = k in
  let minmax_bid = t + 1 in
  let cand_bid j = t + 2 + j in
  let decision_bid = t + 2 + (2 * c) in
  let fresh_acc bid =
    if bid = minmax_bid then [| infinity; neg_infinity; infinity; neg_infinity |]
    else if bid = init_bid then [| 0.; 0.; 0. |]
    else [| 0.; 0. |]
  in
  let init (ctx : Network.ctx) =
    let v = ctx.id in
    let st = Random.State.make [| seed; v; 52361 |] in
    let d = Array.length intra.(v) in
    {
      depth = (if leader_of.(v) = v then 0 else -1);
      parent = (if leader_of.(v) = v then v else -1);
      announced = false;
      nbr_deg = [];
      x = Random.State.float st 2. -. 1.;
      sqd = sqrt (float_of_int d);
      vol = 0.;
      nbr_x = [];
      nbr_y = [];
      y = 0.;
      acc = [| 0. |];
      acc_block = -1;
      results = [];
      forwarded = [];
      side = false;
      split = false;
    }
  in
  (* contribution of a vertex to a given aggregation block *)
  let contribution st v bid =
    let d = float_of_int (Array.length intra.(v)) in
    if bid = init_bid then [| d; st.x *. st.sqd; st.x *. st.x |]
    else if bid >= 1 && bid <= t then [| st.x *. st.sqd; st.x *. st.x |]
    else if bid = minmax_bid then
      [| st.y; st.y; float_of_int st.depth; float_of_int st.depth |]
    else begin
      (* candidate block: which threshold? *)
      let j = bid - (t + 2) in
      let threshold st j =
        match List.assoc_opt minmax_bid st.results with
        | None -> nan
        | Some mm ->
            if j < c then
              mm.(0)
              +. (float_of_int (j + 1) *. (mm.(1) -. mm.(0))
                  /. float_of_int (c + 1))
            else
              mm.(2)
              +. (float_of_int (j - c + 1) *. (mm.(3) -. mm.(2))
                  /. float_of_int (c + 1))
      in
      let th = threshold st j in
      let my_emb = if j < c then st.y else float_of_int st.depth in
      let inside = my_emb <= th in
      let cut2 = ref 0 in
      List.iter
        (fun (w, (wy, wdepth)) ->
          ignore w;
          let w_emb = if j < c then wy else float_of_int wdepth in
          if (w_emb <= th) <> inside then incr cut2)
        st.nbr_y;
      [| float_of_int !cut2; (if inside then d else 0.) |]
    end
  in
  (* apply the post-block update when a result arrives *)
  let absorb_result st result_bid res =
    if result_bid = init_bid || (result_bid >= 1 && result_bid <= t) then begin
      (* deflate + normalize: res = [(vol;) S1; S2] *)
      let vol, s1, s2 =
        if result_bid = init_bid then (res.(0), res.(1), res.(2))
        else (st.vol, res.(0), res.(1))
      in
      if vol <= 0. then st
      else begin
        let coeff = s1 /. vol in
        let x = st.x -. (coeff *. st.sqd) in
        let norm2 = s2 -. (s1 *. s1 /. vol) in
        let x = if norm2 > 1e-30 then x /. sqrt norm2 else x in
        { st with x; vol }
      end
    end
    else st
  in
  (* The BFS / power-iteration / sweep phases run on a dense absolute-round
     schedule in which almost every vertex originates traffic each round,
     so every non-halting step wakes the vertex for the next round. *)
  let round r (ctx : Network.ctx) st inbox =
    let v = ctx.id in
    if Array.length intra.(v) = 0 then
      (* no intra edges: nothing to do this level *)
      Network.step st ~halt:true
    else begin
      let send = ref [] in
      let st = ref st in
      (* 1. absorb inbox *)
      List.iter
        (fun (s, m) ->
          match m with
          | BDepth d ->
              if !st.depth < 0 then
                st := { !st with depth = d + 1; parent = s }
          | Deg d -> st := { !st with nbr_deg = (s, d) :: !st.nbr_deg }
          | Xval x -> st := { !st with nbr_x = (s, x) :: !st.nbr_x }
          | Yval (y, d) -> st := { !st with nbr_y = (s, (y, d)) :: !st.nbr_y }
          | Agg (bid, arr) ->
              let acc =
                if !st.acc_block = bid then !st.acc else fresh_acc bid
              in
              st :=
                { !st with acc = merge ~minmax_bid bid acc arr;
                  acc_block = bid }
          | Res (bid, arr) ->
              if not (List.mem_assoc bid !st.results) then begin
                st := { !st with results = (bid, arr) :: !st.results };
                st := absorb_result !st bid arr;
                (* flood onward *)
                if not (List.mem bid !st.forwarded) then begin
                  st := { !st with forwarded = bid :: !st.forwarded };
                  Array.iter
                    (fun w -> send := (w, Res (bid, arr)) :: !send)
                    intra.(v)
                end
              end)
        inbox;
      let st0 = !st in
      (* unreached vertices idle (the orchestrator separates them) *)
      if st0.depth < 0 && r > b then
        Network.step st0 ~halt:(r > total_rounds) ~wake_after:1
      else begin
        (* 2. act according to the schedule *)
        (* BFS announcements *)
        if r <= b && st0.depth >= 0 && not st0.announced then begin
          st := { st0 with announced = true };
          Array.iter
            (fun w -> send := (w, BDepth !st.depth) :: !send)
            intra.(v)
        end;
        let st1 = !st in
        (* degree exchange *)
        if r = b + 1 then
          Array.iter
            (fun w -> send := (w, Deg (Array.length intra.(v))) :: !send)
            intra.(v);
        (* power-iteration neighbor exchange / local W application: round
           r is an exchange round iff r = power_start k for some k *)
        let power_k_of_round r =
          let off = r - power_start 1 in
          if off >= 0 && off mod (agg_len + 1) = 0 then begin
            let k = (off / (agg_len + 1)) + 1 in
            if k >= 1 && k <= t then Some k else None
          end
          else None
        in
        (match power_k_of_round r with
        | Some _ ->
            Array.iter (fun w -> send := (w, Xval st1.x) :: !send) intra.(v)
        | None -> ());
        (match power_k_of_round (r - 1) with
        | Some _ ->
            let d = float_of_int (Array.length intra.(v)) in
            if d > 0. then begin
              let sum = ref 0. in
              List.iter
                (fun (w, xw) ->
                  match List.assoc_opt w st1.nbr_deg with
                  | Some dw when dw > 0 ->
                      sum := !sum +. (xw /. sqrt (float_of_int dw))
                  | _ -> ())
                st1.nbr_x;
              let x' = (st1.x /. 2.) +. (!sum /. (2. *. st1.sqd)) in
              st := { !st with x = x'; nbr_x = [] }
            end
        | None -> ());
        (* y computation just before the minmax block *)
        if r = minmax_start then begin
          let stc = !st in
          let y = if stc.sqd > 0. then stc.x /. stc.sqd else stc.x in
          st := { stc with y }
        end;
        (* y / depth exchange for the candidate evaluations *)
        if r = yexch_round then begin
          let stc = !st in
          Array.iter
            (fun w -> send := (w, Yval (stc.y, stc.depth)) :: !send)
            intra.(v)
        end;
        (* convergecast turn: derive the block (if any) whose schedule puts
           this vertex's send at round r -- O(1) arithmetic, not a scan *)
        let bid_of_start s =
          if s = init_start then Some init_bid
          else if s = minmax_start then Some minmax_bid
          else if s > init_start && s < minmax_start then begin
            let off = s - (init_start + agg_len + 1) in
            if off >= 0 && off mod (agg_len + 1) = 0 then begin
              let k = (off / (agg_len + 1)) + 1 in
              if k >= 1 && k <= t then Some (power_bid k) else None
            end
            else None
          end
          else if s >= yexch_round + 1 then begin
            let off = s - (yexch_round + 1) in
            if off >= 0 && off mod agg_len = 0 && off / agg_len < 2 * c then
              Some (cand_bid (off / agg_len))
            else None
          end
          else None
        in
        (let stc = !st in
         if stc.depth >= 0 then begin
           match bid_of_start (r - (b - stc.depth)) with
           | Some bid ->
               let own = contribution stc v bid in
               let acc =
                 if stc.acc_block = bid then merge ~minmax_bid bid own stc.acc
                 else own
               in
               if stc.depth = 0 then begin
                 (* root: finalize and broadcast *)
                 st :=
                   { stc with results = (bid, acc) :: stc.results;
                     forwarded = bid :: stc.forwarded };
                 st := absorb_result !st bid acc;
                 Array.iter
                   (fun w -> send := (w, Res (bid, acc)) :: !send)
                   intra.(v)
               end
               else send := (stc.parent, Agg (bid, acc)) :: !send
           | None -> ()
         end);
        (* decision: root evaluates the candidates *)
        if r = decision_start && !st.depth = 0 then begin
          let stc = !st in
          let vol = stc.vol in
          let best = ref (infinity, 0., false) in
          for j = 0 to (2 * c) - 1 do
            match List.assoc_opt (cand_bid j) stc.results with
            | Some res ->
                let cut = res.(0) /. 2. in
                let vin = res.(1) in
                let denom = min vin (vol -. vin) (* lint: allow A002 floats *) in
                if denom > 0. then begin
                  let phi = cut /. denom in
                  let fst3 (a, _, _) = a in
                  if phi < fst3 !best then
                    best := (phi, float_of_int j, true)
                end
            | None -> ()
          done;
          let phi, j, _ = !best in
          let decision =
            if phi < tau then [| 1.; j |] else [| 0.; 0. |]
          in
          st :=
            { stc with results = (decision_bid, decision) :: stc.results;
              forwarded = decision_bid :: stc.forwarded };
          Array.iter
            (fun w -> send := (w, Res (decision_bid, decision)) :: !send)
            intra.(v)
        end;
        (* everyone applies the decision when it arrives (or at the end) *)
        if r >= decision_start then begin
          let stc = !st in
          match List.assoc_opt decision_bid stc.results with
          (* lint: allow H001 decision flag: the leader sends exactly 1. (split) or 0. *)
          | Some d when d.(0) = 1. && not stc.split ->
              let j = int_of_float d.(1) in
              (match List.assoc_opt minmax_bid stc.results with
              | Some mm ->
                  let th =
                    if j < c then
                      mm.(0)
                      +. (float_of_int (j + 1) *. (mm.(1) -. mm.(0))
                          /. float_of_int (c + 1))
                    else
                      mm.(2)
                      +. (float_of_int (j - c + 1) *. (mm.(3) -. mm.(2))
                          /. float_of_int (c + 1))
                  in
                  let emb = if j < c then stc.y else float_of_int stc.depth in
                  st := { stc with split = true; side = emb <= th }
              | None -> ())
          | _ -> ()
        end;
        Network.step !st ~send:!send ~halt:(r > total_rounds) ~wake_after:1
      end
    end
  in
  let idb = Bits.id_bits n in
  let states, stats =
    Network.run g
      ~bandwidth:(Network.Congest (12 * idb))
      ~msg_bits:(function
        | BDepth _ | Deg _ -> idb
        | Xval _ -> 2 * idb
        | Yval _ -> 3 * idb
        | Agg (_, a) | Res (_, a) -> (1 + (2 * Array.length a)) * idb)
      ~init ~round ~max_rounds:(total_rounds + 2)
  in
  (states, stats)

(* ------------------------------------------------------------------ *)
(* Level orchestration (centralized glue: relabeling only)              *)
(* ------------------------------------------------------------------ *)

let decompose g ~epsilon =
  if not (epsilon > 0. && epsilon < 1.) then
    invalid_arg "Distributed_decomposition.decompose: need 0 < epsilon < 1";
  Obs.Span.with_ "distr.decompose" @@ fun () ->
  let n = Graph.n g in
  let tau =
    Spectral.Expander_decomposition.threshold ~m:(Graph.m g) ~epsilon
  in
  (* start: connected components as clusters (a real system computes these
     with one BFS; we charge no rounds for it) *)
  let labels, k = Traversal.components g in
  let labels = ref labels and k = ref k in
  let total_rounds = ref 0 in
  let total_messages = ref 0 in
  let max_edge_bits = ref 0 in
  let levels = ref 0 in
  let continue = ref true in
  while !continue && !levels < max_levels do
    incr levels;
    (* one span per level: Network.run meters inside attribute this level's
       rounds/messages to it *)
    Obs.Span.with_ (Printf.sprintf "level-%d" !levels) @@ fun () ->
    let view = Cluster_view.of_labels g !labels in
    (* leaders and depth budget for this level *)
    let leaders = Leader_election.run view ~rounds:n in
    total_rounds := !total_rounds + leaders.stats.Network.rounds;
    total_messages := !total_messages + leaders.stats.Network.messages;
    if leaders.stats.Network.max_edge_bits > !max_edge_bits then
      max_edge_bits := leaders.stats.Network.max_edge_bits;
    (* B: the measured max cluster diameter (stand-in for
       O(phi^-1 log n)); every cluster is connected, so this is finite *)
    let b =
      Int.max 1
        (Graph_ops.max_cluster_diameter (Graph_ops.clusters g !labels !k))
    in
    (* T: 40 + 2 * (largest cluster size), capped at 500 —
       low-spectral-gap clusters (paths, trees) need more iterations than
       expanders *)
    let t_level =
      let sizes = Hashtbl.create 16 in
      Array.iter
        (fun l ->
          Hashtbl.replace sizes l
            (1 + (try Hashtbl.find sizes l with Not_found -> 0)))
        !labels;
      let biggest = Hashtbl.fold (fun _ s acc -> Int.max s acc) sizes 1 in
      Int.min 500 (40 + (2 * biggest))
    in
    let states, stats =
      run_level view ~leader_of:leaders.leader_of ~b ~t:t_level ~c:candidates
        ~tau ~seed:(77 * !levels)
    in
    total_rounds := !total_rounds + stats.Network.rounds;
    total_messages := !total_messages + stats.Network.messages;
    if stats.Network.max_edge_bits > !max_edge_bits then
      max_edge_bits := stats.Network.max_edge_bits;
    (* relabel: split sides; separate unreached vertices by component *)
    let changed = ref false in
    let next = ref 0 in
    let fresh = Hashtbl.create 16 in
    let key_of v =
      let st = states.(v) in
      let reached = st.depth >= 0 || Cluster_view.intra_degree view v = 0 in
      ( !labels.(v),
        (if st.split && st.side then 1 else 0),
        (if reached then 0 else 1) )
    in
    let new_labels =
      Array.init n (fun v ->
          let key = key_of v in
          let _, side, unreached = key in
          if side = 1 || unreached = 1 then changed := true;
          match Hashtbl.find_opt fresh key with
          | Some l -> l
          | None ->
              let l = !next in
              incr next;
              Hashtbl.add fresh key l;
              l)
    in
    (* unreached groups may be disconnected: split them by components *)
    let split, split_k = Graph_ops.split_components g new_labels in
    labels := split;
    k := split_k;
    if not !changed then continue := false
  done;
  {
    labels = !labels;
    k = !k;
    inter_edges = Graph_ops.inter_edges g !labels;
    epsilon;
    tau;
    levels = !levels;
    total_rounds = !total_rounds;
    total_messages = !total_messages;
    max_edge_bits = !max_edge_bits;
  }

let verify g (t : t) =
  let open Spectral.Expander_decomposition in
  verify ~power_iters:200 ~seed:1 g
    {
      labels = t.labels;
      k = t.k;
      inter_edges = t.inter_edges;
      epsilon = t.epsilon;
      phi = t.tau *. t.tau /. 4.;
      tau = t.tau;
      witnesses =
        Array.init t.k (fun i -> no_witness ~path:[ i ] ~source:"distributed");
    }
