open Sparse_graph

type cut = { side : bool array; conductance : float }

let fiedler g ~iters ~seed =
  let n = Graph.n g in
  if Graph.m g = 0 then invalid_arg "Sweep_cut.fiedler: graph has no edges";
  let sqrt_deg = Array.init n (fun v -> sqrt (float_of_int (Graph.degree g v))) in
  let top = Array.copy sqrt_deg in
  Linalg.normalize top;
  let st = Random.State.make [| seed; 211 |] in
  let x = Array.init n (fun _ -> Random.State.float st 2. -. 1.) in
  Linalg.orthogonalize_against top x;
  Linalg.normalize x;
  (* one application of W = (I + D^{-1/2} A D^{-1/2}) / 2 *)
  let apply x =
    let y = Array.make n 0. in
    for u = 0 to n - 1 do
      y.(u) <- y.(u) +. (x.(u) /. 2.);
      if sqrt_deg.(u) > 0. then begin
        let xu = x.(u) /. sqrt_deg.(u) in
        Graph.iter_neighbors g u (fun w ->
            y.(w) <- y.(w) +. (xu /. (2. *. sqrt_deg.(w))))
      end
    done;
    y
  in
  let cur = ref x in
  for _ = 1 to iters do
    let y = apply !cur in
    Linalg.orthogonalize_against top y;
    Linalg.normalize y;
    cur := y
  done;
  Array.init n (fun v ->
      if sqrt_deg.(v) > 0. then !cur.(v) /. sqrt_deg.(v) else !cur.(v))

(* ties between equal embedding values break by vertex id, so the order is
   total and any sort returns the same permutation *)
(* lint: hot *)
let sort_order embedding order =
  let cmp a b =
    let c = Float.compare embedding.(a) embedding.(b) in
    if c <> 0 then c else Int.compare a b
  in
  Array.stable_sort cmp order

(* counting sort: bucket starts by key, then the vertices in id order *)
let key_order keys =
  let n = Array.length keys in
  let kmax = Array.fold_left Int.max 0 keys in
  let start = Array.make (kmax + 2) 0 in
  Array.iter (fun k -> start.(k + 1) <- start.(k + 1) + 1) keys;
  for k = 1 to kmax + 1 do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let order = Array.make n 0 in
  for v = 0 to n - 1 do
    let k = keys.(v) in
    order.(start.(k)) <- v;
    start.(k) <- start.(k) + 1
  done;
  order

let sweep_order g order =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Sweep_cut.sweep_order: need at least 2 vertices";
  let total_vol = 2 * Graph.m g in
  let inside = Array.make n false in
  let cut = ref 0 in
  let vol = ref 0 in
  let best = ref infinity in
  let best_prefix = ref 0 in
  for i = 0 to n - 2 do
    let v = order.(i) in
    (* moving v inside: edges to inside stop crossing, edges to outside start *)
    let to_inside = ref 0 in
    for j = 0 to Graph.degree g v - 1 do
      if inside.(Graph.neighbor_at g v j) then incr to_inside
    done;
    inside.(v) <- true;
    cut := !cut + Graph.degree g v - (2 * !to_inside);
    vol := !vol + Graph.degree g v;
    let denom = Int.min !vol (total_vol - !vol) in
    let phi =
      if denom = 0 then if !cut = 0 then 0. else infinity
      else float_of_int !cut /. float_of_int denom
    in
    if phi < !best then begin
      best := phi;
      best_prefix := i + 1
    end
  done;
  let side = Array.make n false in
  for i = 0 to !best_prefix - 1 do
    side.(order.(i)) <- true
  done;
  { side; conductance = !best }

let sweep g embedding =
  let order = Array.init (Graph.n g) Fun.id in
  sort_order embedding order;
  sweep_order g order

let best_cut g ~iters ~seed = sweep g (fiedler g ~iters ~seed)

let bfs_sweep g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Sweep_cut.bfs_sweep: need at least 2 vertices";
  let d0 = Traversal.bfs g 0 in
  let far = ref 0 in
  Array.iteri (fun v d -> if d > d0.(!far) then far := v) d0;
  let dist = Traversal.bfs g !far in
  (* unreachable vertices sort last, so a disconnected graph yields the
     zero-conductance component cut *)
  let keys = Array.map (fun d -> if d < 0 then n + 1 else d) dist in
  sweep_order g (key_order keys)

let tree_cut g =
  let n = Graph.n g in
  if n < 2 || Graph.m g = 0 then
    invalid_arg "Sweep_cut.tree_cut: need a connected graph with an edge";
  (* iterative DFS from 0: tin/tout intervals and subtree volumes *)
  let tin = Array.make n (-1) and tout = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let order = ref [] in
  let clock = ref 0 in
  let stack = ref [ (0, false) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (v, closing) :: rest ->
        stack := rest;
        if closing then begin
          tout.(v) <- !clock - 1
        end
        else if tin.(v) < 0 then begin
          tin.(v) <- !clock;
          incr clock;
          order := v :: !order;
          stack := (v, true) :: !stack;
          Graph.iter_neighbors g v (fun w ->
              if tin.(w) < 0 then begin
                parent.(w) <- v;
                stack := (w, false) :: !stack
              end)
        end
  done;
  (* order holds reverse DFS preorder: descendants come before parents, so
     one pass accumulates subtree volumes and path counts *)
  let depth = Array.make n 0 in
  List.iter
    (fun v -> if parent.(v) >= 0 then depth.(v) <- depth.(parent.(v)) + 1)
    (List.rev !order);
  let subtree_vol = Array.make n 0 in
  (* diff counts: a non-tree edge (u, v) crosses exactly the subtrees rooted
     on the tree path between u and v; mark +1 at u and v, -2 at their lca,
     and subtree-sum *)
  let diff = Array.make n 0 in
  let lca u v =
    let u = ref u and v = ref v in
    while !u <> !v do
      if depth.(!u) >= depth.(!v) then u := parent.(!u) else v := parent.(!v)
    done;
    !u
  in
  Graph.iter_edges g (fun _ u v ->
      if parent.(v) <> u && parent.(u) <> v then begin
        (* non-tree edge (tree edges are exactly parent links) *)
        diff.(u) <- diff.(u) + 1;
        diff.(v) <- diff.(v) + 1;
        let a = lca u v in
        diff.(a) <- diff.(a) - 2
      end);
  let path_count = diff in
  List.iter
    (fun v ->
      subtree_vol.(v) <- subtree_vol.(v) + Graph.degree g v;
      let p = parent.(v) in
      if p >= 0 then begin
        subtree_vol.(p) <- subtree_vol.(p) + subtree_vol.(v);
        path_count.(p) <- path_count.(p) + path_count.(v)
      end)
    !order;
  let inside v root = tin.(root) <= tin.(v) && tin.(v) <= tout.(root) in
  let total_vol = 2 * Graph.m g in
  let best_root = ref (-1) in
  let best_phi = ref infinity in
  for root = 0 to n - 1 do
    if parent.(root) >= 0 then begin
      let crossing = 1 + path_count.(root) in
      let denom = Int.min subtree_vol.(root) (total_vol - subtree_vol.(root)) in
      let phi =
        if denom = 0 then infinity
        else float_of_int crossing /. float_of_int denom
      in
      if phi < !best_phi then begin
        best_phi := phi;
        best_root := root
      end
    end
  done;
  if !best_root < 0 then invalid_arg "Sweep_cut.tree_cut: disconnected graph"
  else begin
    let side = Array.init n (fun v -> inside v !best_root) in
    { side; conductance = !best_phi }
  end

let combined_cut g ~iters ~seed =
  let spectral = best_cut g ~iters ~seed in
  let bfs = bfs_sweep g in
  let candidates =
    if Traversal.is_connected g then [ spectral; bfs; tree_cut g ]
    else [ spectral; bfs ]
  in
  List.fold_left
    (fun best c -> if c.conductance < best.conductance then c else best)
    spectral candidates
