(* Breadth-first search on an int-array FIFO. [queue.(0 .. tail-1)] holds
   the sources, already marked in [dist]; every vertex reached is appended
   to [queue] with its hop distance in [dist] and, when [parent] is
   non-empty, its BFS parent. Returns the new tail: the visited vertices,
   in FIFO order, are [queue.(0 .. result-1)]. *)
(* lint: hot *)
let drain g dist parent queue tail =
  let track = Array.length parent > 0 in
  let head = ref 0 and tail = ref tail in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let d = dist.(v) + 1 in
    for i = 0 to Graph.degree g v - 1 do
      let w = Graph.neighbor_at g v i in
      if dist.(w) < 0 then begin
        dist.(w) <- d;
        if track then parent.(w) <- v;
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  !tail

(* The FIFO every traversal here drains: one per domain, grown to the
   largest graph seen, so a BFS allocates nothing beyond its result. A
   traversal calls nothing that could reuse the buffer while it holds it,
   and the repo starts no threads that could interleave two traversals on
   one domain. *)
let fifo_key = Domain.DLS.new_key (fun () -> ref [||])

let fifo n =
  let buf = Domain.DLS.get fifo_key in
  if Array.length !buf < n then buf := Array.make n 0;
  !buf

let bfs_multi g sources =
  let n = Graph.n g in
  let dist = Array.make n (-1) and queue = fifo n in
  let tail =
    List.fold_left
      (fun tail s ->
        if dist.(s) >= 0 then tail
        else begin
          dist.(s) <- 0;
          queue.(tail) <- s;
          tail + 1
        end)
      0 sources
  in
  ignore (drain g dist [||] queue tail);
  dist

let bfs g src = bfs_multi g [ src ]

let bfs_layers g src =
  let dist = bfs g src in
  let radius = Array.fold_left max 0 dist in
  let layers = Array.make (radius + 1) [] in
  for v = Graph.n g - 1 downto 0 do
    if dist.(v) >= 0 then layers.(dist.(v)) <- v :: layers.(dist.(v))
  done;
  layers

let components g =
  let n = Graph.n g in
  let label = Array.make n (-1) and queue = fifo n in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if label.(v) < 0 then begin
      (* [label] holds the drain's distances until they are overwritten
         with the component's number *)
      label.(v) <- 0;
      queue.(0) <- v;
      let size = drain g label [||] queue 1 in
      for i = 0 to size - 1 do
        label.(queue.(i)) <- !count
      done;
      incr count
    end
  done;
  (label, !count)

let component_list g =
  let label, count = components g in
  let buckets = Array.make count [] in
  for v = Graph.n g - 1 downto 0 do
    buckets.(label.(v)) <- v :: buckets.(label.(v))
  done;
  Array.to_list buckets

let is_connected g =
  let _, count = components g in
  count <= 1

let eccentricity g v =
  Array.fold_left max 0 (bfs g v)

(* Exact diameter by eccentricity bounds (Takes & Kosters, CIKM 2011;
   iFUB, Crescenzi et al., TCS 2013). Every vertex w carries
   [lo.(w) <= ecc w <= hi.(w)]. A sweep from v with eccentricity e puts
   each w at distance d inside [max d (e - d), e + d]. [best], the largest
   eccentricity swept so far, is a lower bound on the diameter, so a
   vertex with [hi <= best] cannot raise it and leaves [live]; when [live]
   is empty, [best] is the diameter. Components are searched one after
   another and share [best]: the result is their largest diameter. *)
type bounds = {
  g : Graph.t;
  dist : int array;   (* -1 between sweeps *)
  queue : int array;  (* the FIFO of the current sweep *)
  lo : int array;
  hi : int array;     (* max_int until the vertex's component is reached *)
  live : int array;   (* the candidates of the current component *)
  mutable best : int;
  mutable sweeps : int;
}

(* BFS from [v]; the sweep's vertices, in FIFO order, are
   [queue.(0 .. result-1)], so the last one lies farthest from [v] *)
(* lint: hot *)
let sweep b v =
  b.dist.(v) <- 0;
  b.queue.(0) <- v;
  b.sweeps <- b.sweeps + 1;
  drain b.g b.dist [||] b.queue 1

(* after a sweep that visited [size] vertices: raise [best] to its
   eccentricity, tighten the first [count] live vertices, drop those that
   can no longer raise [best], and clear [dist]; returns the live count *)
(* lint: hot *)
let tighten b size count =
  let e = b.dist.(b.queue.(size - 1)) in
  if e > b.best then b.best <- e;
  let kept = ref 0 in
  for i = 0 to count - 1 do
    let w = b.live.(i) in
    let d = b.dist.(w) in
    b.lo.(w) <- Int.max b.lo.(w) (Int.max d (e - d));
    b.hi.(w) <- Int.min b.hi.(w) (e + d);
    if b.hi.(w) > b.best then begin
      b.live.(!kept) <- w;
      incr kept
    end
  done;
  for i = 0 to size - 1 do
    b.dist.(b.queue.(i)) <- -1
  done;
  !kept

(* the live vertex with the highest [hi] ([by_hi]) or the lowest [lo],
   smallest id on ties *)
(* lint: hot *)
let pick b ~by_hi count =
  let best = ref b.live.(0) in
  for i = 1 to count - 1 do
    let w = b.live.(i) and c = !best in
    let better =
      if by_hi then b.hi.(w) > b.hi.(c) || (b.hi.(w) = b.hi.(c) && w < c)
      else b.lo.(w) < b.lo.(c) || (b.lo.(w) = b.lo.(c) && w < c)
    in
    if better then best := w
  done;
  !best

let diameter g =
  let n = Graph.n g in
  let b =
    {
      g;
      dist = Array.make n (-1);
      queue = fifo n;
      lo = Array.make n 0;
      hi = Array.make n max_int;
      live = Array.make n 0;
      best = 0;
      sweeps = 0;
    }
  in
  for s = 0 to n - 1 do
    if b.hi.(s) = max_int then begin
      (* [s] opens a new component: its smallest vertex, and with every
         [hi] there still unbounded, the highest-[hi] pick. Its sweep
         reaches the whole component, which becomes the live set. *)
      let size = sweep b s in
      Array.blit b.queue 0 b.live 0 size;
      let count = ref (tighten b size size) in
      let by_hi = ref false in
      while !count > 0 do
        let size = sweep b (pick b ~by_hi:!by_hi !count) in
        count := tighten b size !count;
        by_hi := not !by_hi
      done
    end
  done;
  Obs.Metric.count "graph.diameter_bfs" b.sweeps;
  b.best

let argmax_dist dist =
  let best = ref 0 in
  Array.iteri (fun v d -> if d > dist.(!best) then best := v) dist;
  !best

let diameter_double_sweep g =
  if Graph.n g = 0 then 0
  else begin
    let d0 = bfs g 0 in
    let far = argmax_dist d0 in
    eccentricity g far
  end

module Heap = struct
  (* binary min-heap of (key, vertex) pairs *)
  type t = {
    mutable data : (int * int) array;
    mutable len : int;
  }

  let create () = { data = Array.make 16 (0, 0); len = 0 }
  let is_empty h = h.len = 0

  let swap h i j =
    let t = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- t

  let push h key v =
    if h.len = Array.length h.data then begin
      let bigger = Array.make (2 * h.len) (0, 0) in
      Array.blit h.data 0 bigger 0 h.len;
      h.data <- bigger
    end;
    h.data.(h.len) <- (key, v);
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let pop h =
    let top = h.data.(0) in
    h.len <- h.len - 1;
    h.data.(0) <- h.data.(h.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.len && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
      if r < h.len && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        swap h !i !smallest;
        i := !smallest
      end
    done;
    top
end

let dijkstra g weight src =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let heap = Heap.create () in
  dist.(src) <- 0;
  Heap.push heap 0 src;
  while not (Heap.is_empty heap) do
    let d, v = Heap.pop heap in
    if d = dist.(v) then
      Graph.iter_incident g v (fun w e ->
          let we = weight e in
          if we < 0 then invalid_arg "Traversal.dijkstra: negative weight";
          let nd = d + we in
          if nd < dist.(w) then begin
            dist.(w) <- nd;
            Heap.push heap nd w
          end)
  done;
  dist

let is_acyclic g =
  let _, count = components g in
  Graph.m g = Graph.n g - count

let spanning_forest g =
  let uf = Union_find.create (Graph.n g) in
  Graph.fold_edges g
    (fun acc e u v -> if Union_find.union uf u v then e :: acc else acc)
    []
  |> List.rev
