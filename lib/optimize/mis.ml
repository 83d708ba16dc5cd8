open Sparse_graph
module S = Set.Make (Int)
module M = Map.Make (Int)

(* functional adjacency map: vertex -> neighbor set; absent = deleted *)

let adjacency g =
  let add v w m =
    M.update v (function None -> Some (S.singleton w) | Some s -> Some (S.add w s)) m
  in
  let m = ref M.empty in
  for v = 0 to Graph.n g - 1 do
    m := M.add v S.empty !m
  done;
  Graph.iter_edges g (fun _ u v -> m := add u v (add v u !m));
  !m

let delete v adj =
  match M.find_opt v adj with
  | None -> adj
  | Some nbrs ->
      let adj = M.remove v adj in
      S.fold (fun w acc -> M.update w (Option.map (S.remove v)) acc) nbrs adj

let delete_closed v adj =
  match M.find_opt v adj with
  | None -> adj
  | Some nbrs -> S.fold delete nbrs (delete v adj)

(* greedy maximal matching size on the functional graph: used for the
   pruning bound alpha <= n - mu *)
let matching_bound adj =
  let used = ref S.empty in
  let count = ref 0 in
  M.iter
    (fun v nbrs ->
      if not (S.mem v !used) then begin
        let partner =
          S.fold
            (fun w acc ->
              match acc with
              | Some _ -> acc
              | None -> if S.mem w !used then None else Some w)
            nbrs None
        in
        match partner with
        | Some w ->
            used := S.add v (S.add w !used);
            incr count
        | None -> ()
      end)
    adj;
  !count

let rec greedy_on adj acc =
  if M.is_empty adj then acc
  else begin
    let v, _ =
      M.fold
        (fun v nbrs (bv, bd) ->
          let d = S.cardinal nbrs in
          if d < bd then (v, d) else (bv, bd))
        adj (-1, max_int)
    in
    greedy_on (delete_closed v adj) (v :: acc)
  end

let exact g =
  if Graph.n g > 400 then
    invalid_arg "Mis.exact: graph too large";
  let fresh = ref (Graph.n g) in
  let best_size = ref 0 in
  (* returns (size, set); [depth_bound] prunes via alpha <= |V| - mu *)
  let rec solve adj current =
    let n_alive = M.cardinal adj in
    if n_alive = 0 then begin
      if current > !best_size then best_size := current;
      (0, S.empty)
    end
    else begin
      let ub = n_alive - matching_bound adj in
      if current + ub <= !best_size then (min_int / 2, S.empty)
      else begin
        (* pick min-degree vertex for reductions, max-degree for branching *)
        let vmin = ref (-1) and dmin = ref max_int in
        let vmax = ref (-1) and dmax = ref (-1) in
        M.iter
          (fun v nbrs ->
            let d = S.cardinal nbrs in
            if d < !dmin then begin
              dmin := d;
              vmin := v
            end;
            if d > !dmax then begin
              dmax := d;
              vmax := v
            end)
          adj;
        if !dmin = 0 then begin
          let size, set = solve (M.remove !vmin adj) (current + 1) in
          (size + 1, S.add !vmin set)
        end
        else if !dmin = 1 then begin
          let size, set = solve (delete_closed !vmin adj) (current + 1) in
          (size + 1, S.add !vmin set)
        end
        else if !dmin = 2 then begin
          let v = !vmin in
          let nbrs = M.find v adj in
          match S.elements nbrs with
          | [ a; b ] ->
              if S.mem b (M.find a adj) then begin
                (* triangle: v is always safe to take *)
                let size, set = solve (delete_closed v adj) (current + 1) in
                (size + 1, S.add v set)
              end
              else begin
                (* fold v, a, b into a fresh vertex f *)
                let f = !fresh in
                incr fresh;
                let na = M.find a adj and nb = M.find b adj in
                let outside = S.remove v (S.union na nb) in
                let adj' = delete v (delete a (delete b adj)) in
                let adj' =
                  S.fold
                    (fun w acc -> M.update w (Option.map (S.add f)) acc)
                    outside adj'
                in
                let adj' = M.add f outside adj' in
                let size, set = solve adj' (current + 1) in
                if S.mem f set then (size + 1, S.add a (S.add b (S.remove f set)))
                else (size + 1, S.add v set)
              end
          | _ -> assert false (* lint: allow S001 dmin = 2 forces two neighbors *)
        end
        else begin
          let u = !vmax in
          (* branch 1: take u *)
          let s1, set1 = solve (delete_closed u adj) (current + 1) in
          let take = (s1 + 1, S.add u set1) in
          (* branch 2: skip u *)
          let s2, set2 = solve (delete u adj) current in
          if s2 > fst take then (s2, set2) else take
        end
      end
    end
  in
  let greedy_set = greedy_on (adjacency g) [] in
  (* seed the incumbent with the greedy solution: tightens pruning, and a
     subtree that can only tie it is safely cut because we fall back on the
     greedy set below *)
  best_size := List.length greedy_set;
  let _, set = solve (adjacency g) 0 in
  (* folded vertices were translated on the way out; only originals remain *)
  let found = List.filter (fun v -> v < Graph.n g) (S.elements set) in
  if List.length found >= List.length greedy_set then found
  else List.sort compare greedy_set

let exact_size g = List.length (exact g)

let greedy g = List.sort compare (greedy_on (adjacency g) [])

(* lint: allow U001 test oracle: validity of every MIS output *)
let is_independent g vs =
  let rec go = function
    | [] -> true
    | v :: rest ->
        List.for_all (fun u -> not (Graph.mem_edge g u v)) rest && go rest
  in
  go vs

let weight_of w vs = List.fold_left (fun acc v -> acc + w.(v)) 0 vs

let exact_weighted g w =
  let n0 = Graph.n g in
  if n0 > 200 then invalid_arg "Mis.exact_weighted: graph too large";
  Array.iter
    (fun x -> if x <= 0 then invalid_arg "Mis.exact_weighted: weights must be positive")
    w;
  let best = ref 0 in
  (* weights live in a functional map because pendant folding rewrites them *)
  let rec solve adj wts current =
    if M.is_empty adj then begin
      if current > !best then best := current;
      (0, S.empty)
    end
    else begin
      (* bound: total weight minus, for each greedily matched edge, the
         lighter endpoint (an independent set keeps at most one endpoint) *)
      let total_w = M.fold (fun v _ acc -> acc + M.find v wts) adj 0 in
      let used = ref S.empty in
      let discount = ref 0 in
      M.iter
        (fun v nbrs ->
          if not (S.mem v !used) then begin
            let partner =
              S.fold
                (fun w acc ->
                  match acc with
                  | Some _ -> acc
                  | None -> if S.mem w !used then None else Some w)
                nbrs None
            in
            match partner with
            | Some w ->
                used := S.add v (S.add w !used);
                discount := !discount + min (M.find v wts) (M.find w wts)
            | None -> ()
          end)
        adj;
      let remaining = total_w - !discount in
      if current + remaining <= !best then (min_int / 2, S.empty)
      else begin
        let vmin = ref (-1) and dmin = ref max_int in
        let vmax = ref (-1) and dmax = ref (-1) in
        M.iter
          (fun v nbrs ->
            let d = S.cardinal nbrs in
            if d < !dmin then begin
              dmin := d;
              vmin := v
            end;
            if d > !dmax then begin
              dmax := d;
              vmax := v
            end)
          adj;
        if !dmin = 0 then begin
          let v = !vmin in
          let wv = M.find v wts in
          let value, set = solve (M.remove v adj) wts (current + wv) in
          (value + wv, S.add v set)
        end
        else if !dmin = 1 then begin
          let v = !vmin in
          let wv = M.find v wts in
          let c = S.min_elt (M.find v adj) in
          let wc = M.find c wts in
          if wv >= wc then begin
            let value, set = solve (delete_closed v adj) wts (current + wv) in
            (value + wv, S.add v set)
          end
          else begin
            (* weighted pendant folding: charge w(v) now; c's weight drops *)
            let wts' = M.add c (wc - wv) wts in
            let value, set = solve (delete v adj) wts' (current + wv) in
            if S.mem c set then (value + wv, set)
            else (value + wv, S.add v set)
          end
        end
        else begin
          let u = !vmax in
          let wu = M.find u wts in
          let v1, s1 = solve (delete_closed u adj) wts (current + wu) in
          let take = (v1 + wu, S.add u s1) in
          let v2, s2 = solve (delete u adj) wts current in
          if v2 > fst take then (v2, s2) else take
        end
      end
    end
  in
  let wts = ref M.empty in
  for v = 0 to n0 - 1 do
    wts := M.add v w.(v) !wts
  done;
  let _, set = solve (adjacency g) !wts 0 in
  let found = S.elements set in
  (* fall back on a greedy set if pruning ate all branches of equal value *)
  let greedy_set = greedy_on (adjacency g) [] in
  if weight_of w found >= weight_of w greedy_set then List.sort compare found
  else List.sort compare greedy_set

(* lint: allow U001 test oracle: exhaustive reference for the weighted MIS *)
let brute_force_weighted g w =
  let n = Graph.n g in
  if n > 20 then invalid_arg "Mis.brute_force_weighted: too large";
  let adj = Array.make n 0 in
  Graph.iter_edges g (fun _ u v ->
      adj.(u) <- adj.(u) lor (1 lsl v);
      adj.(v) <- adj.(v) lor (1 lsl u));
  let best = ref 0 in
  for s = 0 to (1 lsl n) - 1 do
    let ok = ref true in
    let total = ref 0 in
    for v = 0 to n - 1 do
      if s land (1 lsl v) <> 0 then begin
        total := !total + w.(v);
        if adj.(v) land s <> 0 then ok := false
      end
    done;
    if !ok && !total > !best then best := !total
  done;
  !best

(* lint: allow U001 test oracle: exhaustive reference for Mis.exact *)
let brute_force g =
  let n = Graph.n g in
  if n > 20 then invalid_arg "Mis.brute_force: too large";
  let adj = Array.make n 0 in
  Graph.iter_edges g (fun _ u v ->
      adj.(u) <- adj.(u) lor (1 lsl v);
      adj.(v) <- adj.(v) lor (1 lsl u));
  let best = ref 0 in
  for s = 0 to (1 lsl n) - 1 do
    let ok = ref true in
    let size = ref 0 in
    for v = 0 to n - 1 do
      if s land (1 lsl v) <> 0 then begin
        incr size;
        if adj.(v) land s <> 0 then ok := false
      end
    done;
    if !ok && !size > !best then best := !size
  done;
  !best
