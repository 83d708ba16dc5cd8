open Sparse_graph

type labelling = bool array

let score g labels clustering =
  Graph.fold_edges g
    (fun acc e u v ->
      let same = clustering.(u) = clustering.(v) in
      if same = labels.(e) then acc + 1 else acc)
    0

let trivial g labels =
  let n = Graph.n g in
  let singletons = Array.init n Fun.id in
  let one = Array.make n 0 in
  if score g labels singletons >= score g labels one then singletons else one

let exact_limit = 16

(* q(C) = (+edges inside C) - (-edges inside C); total score =
   sum_clusters q(C) + (total negative edges), so maximizing sum q is
   equivalent. *)
let exact g labels =
  let n = Graph.n g in
  if n > exact_limit then invalid_arg "Correlation.exact: graph too large";
  if n = 0 then [||]
  else begin
    let plus = Array.make n 0 and minus = Array.make n 0 in
    Graph.iter_edges g (fun e u v ->
        if labels.(e) then begin
          plus.(u) <- plus.(u) lor (1 lsl v);
          plus.(v) <- plus.(v) lor (1 lsl u)
        end
        else begin
          minus.(u) <- minus.(u) lor (1 lsl v);
          minus.(v) <- minus.(v) lor (1 lsl u)
        end);
    let size = 1 lsl n in
    let q = Array.make size 0 in
    for s = 1 to size - 1 do
      let v = ref 0 in
      while s land (1 lsl !v) = 0 do
        incr v
      done;
      let rest = s lxor (1 lsl !v) in
      q.(s) <-
        q.(rest)
        + Spectral.Popcount.popcount (plus.(!v) land rest)
        - Spectral.Popcount.popcount (minus.(!v) land rest)
    done;
    (* best(S): max over first clusters C (containing S's lowest vertex) *)
    let best = Array.make size 0 in
    let choice = Array.make size 0 in
    for s = 1 to size - 1 do
      let v = ref 0 in
      while s land (1 lsl !v) = 0 do
        incr v
      done;
      let low = 1 lsl !v in
      let rest = s lxor low in
      (* iterate submasks t of rest; cluster C = t | low *)
      let bestv = ref min_int and bestc = ref low in
      let t = ref rest in
      let continue = ref true in
      while !continue do
        let c = !t lor low in
        let cand = q.(c) + best.(s lxor c) in
        if cand > !bestv then begin
          bestv := cand;
          bestc := c
        end;
        if !t = 0 then continue := false else t := (!t - 1) land rest
      done;
      best.(s) <- !bestv;
      choice.(s) <- !bestc
    done;
    let clustering = Array.make n 0 in
    let s = ref (size - 1) in
    let next = ref 0 in
    while !s <> 0 do
      let c = choice.(!s) in
      for v = 0 to n - 1 do
        if c land (1 lsl v) <> 0 then clustering.(v) <- !next
      done;
      incr next;
      s := !s lxor c
    done;
    clustering
  end

let exact_score g labels = score g labels (exact g labels)

let pivot g labels ~seed =
  let n = Graph.n g in
  let st = Random.State.make [| seed; 337 |] in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let clustering = Array.make n (-1) in
  let next = ref 0 in
  Array.iter
    (fun p ->
      if clustering.(p) < 0 then begin
        let c = !next in
        incr next;
        clustering.(p) <- c;
        Graph.iter_incident g p (fun w e ->
            if clustering.(w) < 0 && labels.(e) then clustering.(w) <- c)
      end)
    order;
  clustering

let local_improve g labels clustering ~passes =
  let n = Graph.n g in
  let cl = Array.copy clustering in
  let next_fresh = ref (Array.fold_left max 0 cl + 1) in
  (* gain of moving v into cluster c: recompute v's incident agreement *)
  let agreement_of v c =
    Graph.fold_neighbors g v
      (fun acc w ->
        let e = Graph.find_edge g v w in
        let same = cl.(w) = c in
        if same = labels.(e) then acc + 1 else acc)
      0
  in
  for _ = 1 to passes do
    for v = 0 to n - 1 do
      let current = agreement_of v cl.(v) in
      (* candidate clusters: neighbors' clusters plus a fresh singleton *)
      let candidates =
        Graph.fold_neighbors g v (fun acc w -> cl.(w) :: acc) [ !next_fresh ]
      in
      let best_c = ref cl.(v) and best_gain = ref current in
      List.iter
        (fun c ->
          if c <> cl.(v) then begin
            let a = agreement_of v c in
            if a > !best_gain then begin
              best_gain := a;
              best_c := c
            end
          end)
        candidates;
      if !best_c <> cl.(v) then begin
        cl.(v) <- !best_c;
        if !best_c = !next_fresh then incr next_fresh
      end
    done
  done;
  cl

let solve g labels ~seed =
  let n = Graph.n g in
  if n <= exact_limit then exact g labels
  else begin
    (* multi-start local search: trivial clusterings, positive-edge
       components (the natural seed on planted data), and several pivots *)
    let positive_components =
      let pos =
        Graph.fold_edges g
          (fun acc e u v -> if labels.(e) then (u, v) :: acc else acc)
          []
      in
      let sub = Graph.of_edges n pos in
      fst (Traversal.components sub)
    in
    let candidates =
      trivial g labels
      :: local_improve g labels positive_components ~passes:4
      :: local_improve g labels (Array.init n Fun.id) ~passes:4
      :: local_improve g labels (Array.make n 0) ~passes:4
      :: List.map
           (fun i ->
             local_improve g labels (pivot g labels ~seed:(seed + i)) ~passes:4)
           [ 0; 1; 2 ]
    in
    List.fold_left
      (fun best c -> if score g labels c > score g labels best then c else best)
      (List.hd candidates) (List.tl candidates)
  end
