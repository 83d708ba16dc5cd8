open Sparse_graph

let is_dominating g vs =
  let n = Graph.n g in
  let covered = Array.make n false in
  List.iter
    (fun v ->
      covered.(v) <- true;
      Graph.iter_neighbors g v (fun w -> covered.(w) <- true))
    vs;
  Array.for_all Fun.id covered

let greedy g =
  let n = Graph.n g in
  let covered = Array.make n false in
  let remaining = ref n in
  let chosen = ref [] in
  while !remaining > 0 do
    (* vertex covering the most uncovered vertices (closed neighborhood) *)
    let best = ref (-1) and best_gain = ref (-1) in
    for v = 0 to n - 1 do
      let gain =
        (if covered.(v) then 0 else 1)
        + Graph.fold_neighbors g v
            (fun acc w -> if covered.(w) then acc else acc + 1)
            0
      in
      if gain > !best_gain then begin
        best_gain := gain;
        best := v
      end
    done;
    let v = !best in
    chosen := v :: !chosen;
    if not covered.(v) then begin
      covered.(v) <- true;
      decr remaining
    end;
    Graph.iter_neighbors g v (fun w ->
        if not covered.(w) then begin
          covered.(w) <- true;
          decr remaining
        end)
  done;
  List.sort compare !chosen

let exact g =
  let n = Graph.n g in
  if n > 150 then invalid_arg "Dominating.exact: graph too large";
  if n = 0 then []
  else begin
    let closed v =
      v :: Graph.fold_neighbors g v (fun acc w -> w :: acc) []
    in
    let delta1 = Graph.max_degree g + 1 in
    let incumbent = ref (greedy g) in
    let best_size = ref (List.length !incumbent) in
    (* covered_count.(v) = how many chosen vertices dominate v *)
    let covered = Array.make n 0 in
    let undominated = ref n in
    let chosen = ref [] in
    let choose v =
      chosen := v :: !chosen;
      List.iter
        (fun w ->
          if covered.(w) = 0 then decr undominated;
          covered.(w) <- covered.(w) + 1)
        (closed v)
    in
    let unchoose v =
      chosen := List.tl !chosen;
      List.iter
        (fun w ->
          covered.(w) <- covered.(w) - 1;
          if covered.(w) = 0 then incr undominated)
        (closed v)
    in
    let rec solve depth =
      if !undominated = 0 then begin
        if depth < !best_size then begin
          best_size := depth;
          incumbent := List.sort compare !chosen
        end
      end
      else begin
        let bound = depth + (((!undominated + delta1) - 1) / delta1) in
        if bound < !best_size then begin
          (* pick the undominated vertex with the fewest dominators: its
             closed neighborhood is the branching set *)
          let pick = ref (-1) and pick_opts = ref max_int in
          for v = 0 to n - 1 do
            if covered.(v) = 0 then begin
              let opts = Graph.degree g v + 1 in
              if opts < !pick_opts then begin
                pick_opts := opts;
                pick := v
              end
            end
          done;
          List.iter
            (fun u ->
              choose u;
              solve (depth + 1);
              unchoose u)
            (closed !pick)
        end
      end
    in
    solve 0;
    !incumbent
  end

let exact_size g = List.length (exact g)

(* lint: allow U001 test oracle: exhaustive reference for Dominating.exact *)
let brute_force g =
  let n = Graph.n g in
  if n > 20 then invalid_arg "Dominating.brute_force: too large";
  let closed = Array.make n 0 in
  for v = 0 to n - 1 do
    closed.(v) <- 1 lsl v;
    Graph.iter_neighbors g v (fun w -> closed.(v) <- closed.(v) lor (1 lsl w))
  done;
  let full = (1 lsl n) - 1 in
  let best = ref n in
  for s = 0 to full do
    let cover = ref 0 and size = ref 0 in
    for v = 0 to n - 1 do
      if s land (1 lsl v) <> 0 then begin
        incr size;
        cover := !cover lor closed.(v)
      end
    done;
    if !cover = full && !size < !best then best := !size
  done;
  !best
