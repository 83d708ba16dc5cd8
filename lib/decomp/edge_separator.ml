open Sparse_graph

type cut = {
  side : bool array;
  crossing : int;
  small_side : int;
}

let of_side g side =
  let crossing =
    Graph.fold_edges g
      (fun acc _ u v -> if side.(u) <> side.(v) then acc + 1 else acc)
      0
  in
  let inside = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 side in
  { side; crossing; small_side = min inside (Graph.n g - inside) }

let is_balanced g cut = cut.small_side >= Graph.n g / 3

(* best balanced prefix cut of a vertex ordering *)
let best_prefix g order =
  let n = Graph.n g in
  let inside = Array.make n false in
  let crossing = ref 0 in
  let best = ref max_int in
  let best_at = ref (-1) in
  Array.iteri
    (fun i v ->
      let to_inside =
        Graph.fold_neighbors g v
          (fun acc w -> if inside.(w) then acc + 1 else acc)
          0
      in
      inside.(v) <- true;
      crossing := !crossing + Graph.degree g v - (2 * to_inside);
      let size = i + 1 in
      if size >= n / 3 && n - size >= n / 3 && !crossing < !best then begin
        best := !crossing;
        best_at := size
      end)
    order;
  if !best_at < 0 then None
  else begin
    let side = Array.make n false in
    for i = 0 to !best_at - 1 do
      side.(order.(i)) <- true
    done;
    Some (of_side g side)
  end

let arbitrary_balanced g =
  (* fallback: first n/2 vertices *)
  let n = Graph.n g in
  let side = Array.init n (fun v -> v < n / 2) in
  of_side g side

let bfs_layered g =
  let n = Graph.n g in
  let starts =
    List.sort_uniq compare
      [ 0; n / 2; n - 1; Graph.max_degree_vertex g ]
  in
  let candidates =
    List.filter_map
      (fun s ->
        let dist = Traversal.bfs g s in
        let order = Array.init n Fun.id in
        (* unreachable vertices (dist -1) go last *)
        Array.sort
          (fun a b ->
            let da = if dist.(a) < 0 then max_int else dist.(a) in
            let db = if dist.(b) < 0 then max_int else dist.(b) in
            compare (da, a) (db, b))
          order;
        best_prefix g order)
      starts
  in
  match candidates with
  | [] -> arbitrary_balanced g
  | c :: rest -> List.fold_left (fun a b -> if b.crossing < a.crossing then b else a) c rest

let spectral g ~seed =
  if Graph.m g = 0 then arbitrary_balanced g
  else begin
    let embedding = Spectral.Sweep_cut.fiedler g ~iters:200 ~seed in
    let n = Graph.n g in
    let order = Array.init n Fun.id in
    Spectral.Sweep_cut.sort_order embedding order;
    match best_prefix g order with
    | Some c -> c
    | None -> arbitrary_balanced g
  end

let refine g cut ~passes =
  let n = Graph.n g in
  let side = Array.copy cut.side in
  let crossing = ref cut.crossing in
  let inside =
    ref (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 side)
  in
  for _ = 1 to passes do
    for v = 0 to n - 1 do
      (* gain of flipping v = (crossing incident) - (non-crossing incident) *)
      let cross = ref 0 and same = ref 0 in
      Graph.iter_neighbors g v (fun w ->
          if side.(w) <> side.(v) then incr cross else incr same);
      let gain = !cross - !same in
      let new_inside = if side.(v) then !inside - 1 else !inside + 1 in
      let balanced =
        Int.min new_inside (n - new_inside) >= n / 3
      in
      if gain > 0 && balanced then begin
        side.(v) <- not side.(v);
        inside := new_inside;
        crossing := !crossing - gain
      end
    done
  done;
  of_side g side

let best g ~seed =
  if Graph.n g < 2 then invalid_arg "Edge_separator.best: need n >= 2";
  let cands =
    [ bfs_layered g; spectral g ~seed ]
    |> List.map (fun c -> refine g c ~passes:3)
    |> List.filter (is_balanced g)
  in
  match cands with
  | [] -> refine g (arbitrary_balanced g) ~passes:3
  | c :: rest ->
      List.fold_left (fun a b -> if b.crossing < a.crossing then b else a) c rest

let quality g cut =
  let d = Graph.max_degree g in
  if d = 0 then 0.
  else
    float_of_int cut.crossing
    /. sqrt (float_of_int d *. float_of_int (Graph.n g))
