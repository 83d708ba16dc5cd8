let path n =
  Graph.of_edges n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then invalid_arg "Generators.cycle: need n >= 3";
  Graph.of_edges n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let complete n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges n !edges

let complete_bipartite a b =
  let edges = ref [] in
  for u = 0 to a - 1 do
    for v = 0 to b - 1 do
      edges := (u, a + v) :: !edges
    done
  done;
  Graph.of_edges (a + b) !edges

let star k = Graph.of_edges (k + 1) (List.init k (fun i -> (0, i + 1)))

let double_star k =
  let spokes =
    List.concat_map (fun i -> [ (0, i + 2); (1, i + 2) ]) (List.init k Fun.id)
  in
  Graph.of_edges (k + 2) spokes

let grid r c =
  let idx i j = (i * c) + j in
  let edges = ref [] in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      if j + 1 < c then edges := (idx i j, idx i (j + 1)) :: !edges;
      if i + 1 < r then edges := (idx i j, idx (i + 1) j) :: !edges
    done
  done;
  Graph.of_edges (r * c) !edges

let torus r c =
  if r < 3 || c < 3 then invalid_arg "Generators.torus: need r, c >= 3";
  let idx i j = (i * c) + j in
  let edges = ref [] in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      edges := (idx i j, idx i ((j + 1) mod c)) :: !edges;
      edges := (idx i j, idx ((i + 1) mod r) j) :: !edges
    done
  done;
  Graph.of_edges (r * c) !edges

let hypercube d =
  let n = 1 lsl d in
  let edges = ref [] in
  for v = 0 to n - 1 do
    for bit = 0 to d - 1 do
      let w = v lxor (1 lsl bit) in
      if v < w then edges := (v, w) :: !edges
    done
  done;
  Graph.of_edges n !edges

let barbell k len =
  if k < 1 then invalid_arg "Generators.barbell: need k >= 1";
  let clique base =
    let edges = ref [] in
    for u = 0 to k - 1 do
      for v = u + 1 to k - 1 do
        edges := (base + u, base + v) :: !edges
      done
    done;
    !edges
  in
  let left = clique 0 and right = clique (k + len) in
  let bridge =
    (* path from vertex k-1 through len internal vertices to vertex k+len *)
    List.init (len + 1) (fun i ->
        let a = if i = 0 then k - 1 else k + i - 1 in
        let b = if i = len then k + len else k + i in
        (a, b))
  in
  Graph.of_edges ((2 * k) + len) (left @ right @ bridge)

let random_tree n ~seed =
  if n <= 0 then invalid_arg "Generators.random_tree: need n >= 1";
  if n = 1 then Graph.empty 1
  else if n = 2 then Graph.of_edges 2 [ (0, 1) ]
  else begin
    let st = Random.State.make [| seed; 17 |] in
    let pruefer = Array.init (n - 2) (fun _ -> Random.State.int st n) in
    let deg = Array.make n 1 in
    Array.iter (fun v -> deg.(v) <- deg.(v) + 1) pruefer;
    let module IntSet = Set.Make (Int) in
    let leaves = ref IntSet.empty in
    for v = 0 to n - 1 do
      if deg.(v) = 1 then leaves := IntSet.add v !leaves
    done;
    let edges = ref [] in
    Array.iter
      (fun v ->
        let leaf = IntSet.min_elt !leaves in
        leaves := IntSet.remove leaf !leaves;
        edges := (leaf, v) :: !edges;
        deg.(v) <- deg.(v) - 1;
        if deg.(v) = 1 then leaves := IntSet.add v !leaves)
      pruefer;
    let a = IntSet.min_elt !leaves in
    let b = IntSet.max_elt !leaves in
    Graph.of_edges n ((a, b) :: !edges)
  end

let erdos_renyi n p ~seed =
  let st = Random.State.make [| seed; 23 |] in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float st 1. < p then edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges n !edges

let random_regular n d ~seed =
  if n * d mod 2 = 1 then
    invalid_arg "Generators.random_regular: n * d must be even";
  if d >= n then invalid_arg "Generators.random_regular: need d < n";
  let st = Random.State.make [| seed; 31 |] in
  let attempt () =
    let stubs = Array.make (n * d) 0 in
    for i = 0 to (n * d) - 1 do
      stubs.(i) <- i / d
    done;
    (* Fisher-Yates shuffle, then pair consecutive stubs. *)
    for i = Array.length stubs - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = stubs.(i) in
      stubs.(i) <- stubs.(j);
      stubs.(j) <- t
    done;
    let ok = ref true in
    let seen = Hashtbl.create (n * d) in
    let edges = ref [] in
    let i = ref 0 in
    while !ok && !i < n * d do
      let u = stubs.(!i) and v = stubs.(!i + 1) in
      let key = (Int.min u v, Int.max u v) in
      if u = v || Hashtbl.mem seen key then ok := false
      else begin
        Hashtbl.add seen key ();
        edges := key :: !edges
      end;
      i := !i + 2
    done;
    if !ok then Some !edges else None
  in
  let rec retry k =
    if k = 0 then
      failwith "Generators.random_regular: too many rejected samples"
    else
      match attempt () with
      | Some edges -> Graph.of_edges n edges
      | None -> retry (k - 1)
  in
  retry 10_000

let random_k_tree n k ~seed =
  if n < k + 1 then invalid_arg "Generators.random_k_tree: need n >= k + 1";
  let st = Random.State.make [| seed; 41 |] in
  let edges = ref [] in
  for u = 0 to k do
    for v = u + 1 to k do
      edges := (u, v) :: !edges
    done
  done;
  (* cliques.(i) is a k-subset of vertices forming a clique *)
  let cliques = ref [||] in
  let base_cliques = ref [] in
  (* all k-subsets of the initial (k+1)-clique *)
  for skip = 0 to k do
    let subset = List.filter (fun v -> v <> skip) (List.init (k + 1) Fun.id) in
    base_cliques := Array.of_list subset :: !base_cliques
  done;
  cliques := Array.of_list !base_cliques;
  let clique_list = ref (Array.to_list !cliques) in
  let count = ref (List.length !clique_list) in
  let clique_arr = ref (Array.of_list !clique_list) in
  for v = k + 1 to n - 1 do
    let pick = Random.State.int st !count in
    let clique = !clique_arr.(pick) in
    Array.iter (fun u -> edges := (u, v) :: !edges) clique;
    (* new k-cliques: clique with one member swapped for v *)
    let fresh =
      Array.to_list
        (Array.mapi
           (fun i _ ->
             let c = Array.copy clique in
             c.(i) <- v;
             c)
           clique)
    in
    clique_list := fresh @ !clique_list;
    count := !count + List.length fresh;
    clique_arr := Array.of_list !clique_list
  done;
  Graph.of_edges n !edges

let random_apollonian n ~seed =
  if n < 3 then invalid_arg "Generators.random_apollonian: need n >= 3";
  let st = Random.State.make [| seed; 53 |] in
  let edges = ref [ (0, 1); (1, 2); (0, 2) ] in
  (* faces as triples; replace a random face by three new ones *)
  let faces = ref [| (0, 1, 2) |] in
  let face_count = ref 1 in
  let capacity = ref 1 in
  let push (a, b, c) =
    if !face_count = !capacity then begin
      let bigger = Array.make (2 * !capacity) (0, 0, 0) in
      Array.blit !faces 0 bigger 0 !face_count;
      faces := bigger;
      capacity := 2 * !capacity
    end;
    !faces.(!face_count) <- (a, b, c);
    incr face_count
  in
  for v = 3 to n - 1 do
    let pick = Random.State.int st !face_count in
    let a, b, c = !faces.(pick) in
    edges := (a, v) :: (b, v) :: (c, v) :: !edges;
    (* replace picked face in place by (a,b,v); add (a,c,v), (b,c,v) *)
    !faces.(pick) <- (a, b, v);
    push (a, c, v);
    push (b, c, v)
  done;
  Graph.of_edges n !edges

let random_maximal_outerplanar n ~seed =
  if n < 3 then invalid_arg "Generators.random_maximal_outerplanar: need n >= 3";
  let st = Random.State.make [| seed; 61 |] in
  let edges = ref [] in
  (* triangulate the polygon 0..n-1 by recursive random splitting *)
  let rec triangulate lo hi =
    (* chord (lo, hi) assumed present; triangulate vertices lo..hi *)
    if hi - lo >= 2 then begin
      let mid = lo + 1 + Random.State.int st (hi - lo - 1) in
      if mid - lo >= 2 then edges := (lo, mid) :: !edges;
      if hi - mid >= 2 then edges := (mid, hi) :: !edges;
      triangulate lo mid;
      triangulate mid hi
    end
  in
  for i = 0 to n - 2 do
    edges := (i, i + 1) :: !edges
  done;
  edges := (0, n - 1) :: !edges;
  triangulate 0 (n - 1);
  Graph.of_edges n !edges

let random_planar n p ~seed =
  let g = random_apollonian n ~seed in
  let st = Random.State.make [| seed; 67 |] in
  let outer (u, v) = u < 3 && v < 3 in
  let kept =
    Graph.fold_edges g
      (fun acc _ u v ->
        if outer (u, v) || Random.State.float st 1. < p then (u, v) :: acc
        else acc)
      []
  in
  Graph.of_edges n kept

let blob_chain ~blobs ~blob_size ~seed =
  if blobs < 1 || blob_size < 3 then
    invalid_arg "Generators.blob_chain: need blobs >= 1 and blob_size >= 3";
  let edges = ref [] in
  for b = 0 to blobs - 1 do
    let base = b * blob_size in
    let blob = random_apollonian blob_size ~seed:(seed + (31 * b)) in
    Graph.iter_edges blob (fun _ u v -> edges := (base + u, base + v) :: !edges);
    if b > 0 then
      (* bridge from the previous blob's last vertex to this blob's first *)
      edges := (base - 1, base) :: !edges
  done;
  Graph.of_edges (blobs * blob_size) !edges

let plant_k5s g count ~seed =
  let n = Graph.n g in
  if 5 * count > n then invalid_arg "Generators.plant_k5s: not enough vertices";
  let st = Random.State.make [| seed; 71 |] in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let extra = ref [] in
  for c = 0 to count - 1 do
    let group = Array.sub perm (5 * c) 5 in
    for i = 0 to 4 do
      for j = i + 1 to 4 do
        extra := (group.(i), group.(j)) :: !extra
      done
    done
  done;
  Graph_ops.add_edges g !extra

let add_random_edges g count ~seed =
  let n = Graph.n g in
  let st = Random.State.make [| seed; 73 |] in
  let extra = ref [] in
  let added = Hashtbl.create count in
  let tries = ref 0 in
  let found = ref 0 in
  while !found < count && !tries < 100 * (count + 1) do
    incr tries;
    let u = Random.State.int st n and v = Random.State.int st n in
    let key = (Int.min u v, Int.max u v) in
    if u <> v && (not (Graph.mem_edge g u v)) && not (Hashtbl.mem added key)
    then begin
      Hashtbl.add added key ();
      extra := key :: !extra;
      incr found
    end
  done;
  Graph_ops.add_edges g !extra

let attach_stars g ~stars ~leaves ~seed =
  let n = Graph.n g in
  let st = Random.State.make [| seed; 79 |] in
  let extra = ref [] in
  let next = ref n in
  for _ = 1 to stars do
    let center = Random.State.int st n in
    for _ = 1 to leaves do
      extra := (center, !next) :: !extra;
      incr next
    done
  done;
  let edges = Graph.fold_edges g (fun acc _ u v -> (u, v) :: acc) !extra in
  Graph.of_edges !next edges

let attach_double_stars g ~hubs ~spokes ~seed =
  let m = Graph.m g in
  if m = 0 then invalid_arg "Generators.attach_double_stars: graph has no edges";
  let st = Random.State.make [| seed; 83 |] in
  let extra = ref [] in
  let next = ref (Graph.n g) in
  for _ = 1 to hubs do
    let e = Random.State.int st m in
    let u, v = Graph.endpoints g e in
    for _ = 1 to spokes do
      extra := (u, !next) :: (v, !next) :: !extra;
      incr next
    done
  done;
  let edges = Graph.fold_edges g (fun acc _ u v -> (u, v) :: acc) !extra in
  Graph.of_edges !next edges

let shuffle g ~seed =
  let n = Graph.n g in
  let st = Random.State.make [| seed; 89 |] in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  Graph_ops.relabel g perm

let random_sign_labels g ~frac_pos ~seed =
  let st = Random.State.make [| seed; 97 |] in
  Array.init (Graph.m g) (fun _ -> Random.State.float st 1. < frac_pos)

let planted_sign_labels g communities ~noise ~seed =
  let st = Random.State.make [| seed; 101 |] in
  let labels = Array.make (Graph.m g) true in
  Graph.iter_edges g (fun e u v ->
      let same = communities.(u) = communities.(v) in
      let flip = Random.State.float st 1. < noise in
      labels.(e) <- (if flip then not same else same));
  labels
