open Sparse_graph

let limit = 22

let dp_table g weight_of =
  let n = Graph.n g in
  if n > limit then
    invalid_arg "Exact_small: graph too large for subset DP";
  let size = 1 lsl n in
  let dp = Array.make size 0 in
  (* incident (neighbor, edge) pairs per vertex for the transition *)
  for s = 1 to size - 1 do
    (* lowest vertex in s *)
    let v = ref 0 in
    while s land (1 lsl !v) = 0 do
      incr v
    done;
    let v = !v in
    let without_v = s lxor (1 lsl v) in
    let best = ref dp.(without_v) in
    Graph.iter_incident g v (fun u e ->
        if s land (1 lsl u) <> 0 then begin
          let cand = weight_of e + dp.(without_v lxor (1 lsl u)) in
          if cand > !best then best := cand
        end);
    dp.(s) <- !best
  done;
  dp

let max_weight_matching g w =
  let n = Graph.n g in
  if n = 0 then 0
  else begin
    let dp = dp_table g (Weights.get w) in
    dp.((1 lsl n) - 1)
  end

let max_weight_matching_edges g w =
  let n = Graph.n g in
  if n = 0 then (0, [])
  else begin
    let weight_of = Weights.get w in
    let dp = dp_table g weight_of in
    (* reconstruct *)
    let s = ref ((1 lsl n) - 1) in
    let picked = ref [] in
    while !s <> 0 do
      let v = ref 0 in
      while !s land (1 lsl !v) = 0 do
        incr v
      done;
      let v = !v in
      let without_v = !s lxor (1 lsl v) in
      if dp.(!s) = dp.(without_v) then s := without_v
      else begin
        let found = ref false in
        Graph.iter_incident g v (fun u e ->
            if
              (not !found)
              && !s land (1 lsl u) <> 0
              && u <> v
              && dp.(!s) = weight_of e + dp.(without_v lxor (1 lsl u))
            then begin
              found := true;
              picked := e :: !picked;
              s := without_v lxor (1 lsl u)
            end);
        if not !found then
          invalid_arg
            (Printf.sprintf
               "Exact_small.max_weight_matching_edges: no edge at vertex %d \
                explains dp value %d on subset 0x%x — the weight function \
                changed between calls"
               v dp.(!s) !s)
      end
    done;
    (dp.((1 lsl n) - 1), !picked)
  end

(* lint: allow U001 test oracle: exact DP reference for Blossom *)
let max_cardinality g =
  let n = Graph.n g in
  if n = 0 then 0
  else begin
    let dp = dp_table g (fun _ -> 1) in
    dp.((1 lsl n) - 1)
  end
