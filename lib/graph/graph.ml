type t = {
  n : int;
  adj_off : int array;
  adj_vtx : int array;
  adj_eid : int array;
  edge_ends : (int * int) array;
}

(* In-place quicksort of keys.(lo..hi) with pay.(lo..hi) co-moving; insertion
   sort below a small cutoff, median-of-three pivot. Keys within a row are
   distinct, so the result is independent of partitioning details. *)
let sort_row (keys : int array) (pay : int array) lo hi =
  let swap i j =
    let k = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- k;
    let p = pay.(i) in
    pay.(i) <- pay.(j);
    pay.(j) <- p
  in
  let insertion lo hi =
    for i = lo + 1 to hi do
      let k = keys.(i) and p = pay.(i) in
      let j = ref (i - 1) in
      while !j >= lo && keys.(!j) > k do
        keys.(!j + 1) <- keys.(!j);
        pay.(!j + 1) <- pay.(!j);
        decr j
      done;
      keys.(!j + 1) <- k;
      pay.(!j + 1) <- p
    done
  in
  let rec go lo hi =
    if hi - lo < 16 then insertion lo hi
    else begin
      let mid = lo + ((hi - lo) / 2) in
      (* median-of-three: order lo, mid, hi, then pivot from mid *)
      if keys.(mid) < keys.(lo) then swap mid lo;
      if keys.(hi) < keys.(lo) then swap hi lo;
      if keys.(hi) < keys.(mid) then swap hi mid;
      let pivot = keys.(mid) in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while keys.(!i) < pivot do
          incr i
        done;
        while keys.(!j) > pivot do
          decr j
        done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      go lo !j;
      go !i hi
    end
  in
  if hi > lo then go lo hi

(* In-place ascending sort of a.(0 .. len-1): [sort_row]'s quicksort
   without the payload. Ints are indistinguishable, so the result is
   independent of partitioning details. An already-sorted prefix (the
   simulator's worklists usually are) is settled by one linear pass. The
   [int array] annotation makes every comparison an inline integer
   compare; left polymorphic, each one is a call into the C comparator *)
(* lint: hot *)
let sort_prefix (a : int array) len =
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let insertion lo hi =
    for i = lo + 1 to hi do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  in
  let rec go lo hi =
    if hi - lo < 16 then insertion lo hi
    else begin
      let mid = lo + ((hi - lo) / 2) in
      if a.(mid) < a.(lo) then swap mid lo;
      if a.(hi) < a.(lo) then swap hi lo;
      if a.(hi) < a.(mid) then swap hi mid;
      let pivot = a.(mid) in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while a.(!i) < pivot do
          incr i
        done;
        while a.(!j) > pivot do
          decr j
        done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      go lo !j;
      go !i hi
    end
  in
  let i = ref 1 in
  while !i < len && a.(!i - 1) <= a.(!i) do
    incr i
  done;
  if !i < len then go 0 (len - 1)

let of_edge_array n raw =
  Array.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf "Graph.of_edges: endpoint out of range (%d,%d), n=%d"
             u v n))
    raw;
  (* each pair with u < v as the key u * n + v (exact for any n a 64-bit
     host can store): ascending keys are the lexicographic order of the
     pairs; self-loops get max_int and sort last *)
  let keys = Array.make (Array.length raw) max_int in
  Array.iteri
    (fun i (u, v) -> if u <> v then keys.(i) <- (Int.min u v * n) + Int.max u v)
    raw;
  (* ints sort to one result whatever the algorithm; callers that renumber
     a graph (induced subgraphs) pass pairs already in key order, which
     sort_prefix settles in one pass *)
  sort_prefix keys (Array.length keys);
  (* compact the distinct keys into the front of [keys] *)
  let m = ref 0 in
  Array.iter
    (fun k ->
      if k < max_int && (!m = 0 || k <> keys.(!m - 1)) then begin
        keys.(!m) <- k;
        incr m
      end)
    keys;
  let edge_ends = Array.init !m (fun e -> (keys.(e) / n, keys.(e) mod n)) in
  let m = !m in
  let deg = Array.make n 0 in
  Array.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edge_ends;
  let adj_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    adj_off.(v + 1) <- adj_off.(v) + deg.(v)
  done;
  let adj_vtx = Array.make (2 * m) 0 in
  let adj_eid = Array.make (2 * m) 0 in
  let cursor = Array.copy adj_off in
  Array.iteri
    (fun e (u, v) ->
      adj_vtx.(cursor.(u)) <- v;
      adj_eid.(cursor.(u)) <- e;
      cursor.(u) <- cursor.(u) + 1;
      adj_vtx.(cursor.(v)) <- u;
      adj_eid.(cursor.(v)) <- e;
      cursor.(v) <- cursor.(v) + 1)
    edge_ends;
  (* Filling in edge order interleaves low and high endpoints, so rows are not
     sorted yet; sort each row by neighbor to establish the invariant. Rows are
     duplicate-free (edges are sort_uniq'd above), so sorting adj_vtx with
     adj_eid co-moving needs no tie-break and can stay monomorphic in-place. *)
  let g = { n; adj_off; adj_vtx; adj_eid; edge_ends } in
  for v = 0 to n - 1 do
    sort_row adj_vtx adj_eid adj_off.(v) (adj_off.(v + 1) - 1)
  done;
  g

let of_edges n edges = of_edge_array n (Array.of_list edges)

let empty n = of_edge_array n [||]

let n g = g.n
let m g = Array.length g.edge_ends
let degree g v = g.adj_off.(v + 1) - g.adj_off.(v)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    if degree g v > !best then best := degree g v
  done;
  !best

let max_degree_vertex g =
  if g.n = 0 then invalid_arg "Graph.max_degree_vertex: empty graph";
  let best = ref 0 in
  for v = 1 to g.n - 1 do
    if degree g v > degree g !best then best := v
  done;
  !best

let endpoints g e = g.edge_ends.(e)

let find_incidence g u v =
  (* binary search for v in u's sorted adjacency row *)
  let lo = ref g.adj_off.(u) and hi = ref (g.adj_off.(u + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.adj_vtx.(mid) in
    if w = v then found := mid
    else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let mem_edge g u v = u <> v && find_incidence g u v >= 0

let find_edge g u v =
  let i = find_incidence g u v in
  if i < 0 then raise Not_found else g.adj_eid.(i)

let neighbor_at g v i =
  if v < 0 || v >= g.n then
    invalid_arg (Printf.sprintf "Graph.neighbor_at: vertex %d out of range" v);
  let lo = g.adj_off.(v) in
  if i < 0 || lo + i >= g.adj_off.(v + 1) then
    invalid_arg
      (Printf.sprintf "Graph.neighbor_at: index %d out of range for vertex %d"
         i v);
  g.adj_vtx.(lo + i)

let iter_neighbors g v f =
  for i = g.adj_off.(v) to g.adj_off.(v + 1) - 1 do
    f g.adj_vtx.(i)
  done

let iter_incident g v f =
  for i = g.adj_off.(v) to g.adj_off.(v + 1) - 1 do
    f g.adj_vtx.(i) g.adj_eid.(i)
  done

let fold_neighbors g v f init =
  let acc = ref init in
  iter_neighbors g v (fun w -> acc := f !acc w);
  !acc

let neighbors g v = List.rev (fold_neighbors g v (fun acc w -> w :: acc) [])

let iter_edges g f =
  Array.iteri (fun e (u, v) -> f e u v) g.edge_ends

let fold_edges g f init =
  let acc = ref init in
  iter_edges g (fun e u v -> acc := f !acc e u v);
  !acc

let edges g = Array.copy g.edge_ends

let edge_density g = if g.n = 0 then 0. else float_of_int (m g) /. float_of_int g.n

(* lint: allow U001 test oracle: CSR invariants of every constructor *)
let check_invariants g =
  let fail fmt = Printf.ksprintf failwith fmt in
  if Array.length g.adj_off <> g.n + 1 then fail "adj_off length";
  if g.adj_off.(0) <> 0 then fail "adj_off.(0) <> 0";
  if g.adj_off.(g.n) <> 2 * m g then fail "adj_off.(n) <> 2m";
  for v = 0 to g.n - 1 do
    if g.adj_off.(v) > g.adj_off.(v + 1) then fail "adj_off not monotone at %d" v;
    for i = g.adj_off.(v) to g.adj_off.(v + 1) - 1 do
      let w = g.adj_vtx.(i) in
      if w = v then fail "self-loop at %d" v;
      if i > g.adj_off.(v) && g.adj_vtx.(i - 1) >= w then
        fail "row of %d not strictly sorted" v;
      let u', v' = g.edge_ends.(g.adj_eid.(i)) in
      if not ((u' = v && v' = w) || (u' = w && v' = v)) then
        fail "edge id mismatch at incidence (%d,%d)" v w;
      if find_incidence g w v < 0 then fail "asymmetric edge (%d,%d)" v w
    done
  done;
  Array.iteri
    (fun e (u, v) ->
      if u >= v then fail "edge %d not normalized" e;
      if find_edge g u v <> e then fail "edge %d not found via adjacency" e)
    g.edge_ends
