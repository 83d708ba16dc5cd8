open Sparse_graph

(* lint: allow U001 test oracle: brute-force reference for minor tests *)
let subgraph_isomorphic h g =
  let nh = Graph.n h and ng = Graph.n g in
  if nh > ng || Graph.m h > Graph.m g then false
  else begin
    (* map H vertices in decreasing-degree order for earlier pruning *)
    let order = Array.init nh Fun.id in
    Array.sort (fun a b -> compare (Graph.degree h b) (Graph.degree h a)) order;
    let assigned = Array.make nh (-1) in
    let used = Array.make ng false in
    let rec place i =
      if i = nh then true
      else begin
        let hv = order.(i) in
        let ok = ref false in
        let gv = ref 0 in
        while (not !ok) && !gv < ng do
          let cand = !gv in
          incr gv;
          if (not used.(cand)) && Graph.degree g cand >= Graph.degree h hv
          then begin
            (* all already-mapped H-neighbors of hv must be G-neighbors *)
            let consistent =
              Graph.fold_neighbors h hv
                (fun acc hw ->
                  acc
                  && (assigned.(hw) < 0 || Graph.mem_edge g cand assigned.(hw)))
                true
            in
            if consistent then begin
              assigned.(hv) <- cand;
              used.(cand) <- true;
              if place (i + 1) then ok := true
              else begin
                assigned.(hv) <- -1;
                used.(cand) <- false
              end
            end
          end
        done;
        !ok
      end
    in
    place 0
  end

(* lint: allow U001 test oracle: brute-force minor reference for Properties *)
let has_minor h g =
  if Graph.n g > 64 then
    invalid_arg "Minor_check.has_minor: graph too large for exact search";
  (* [g] with edge [e] contracted: its larger endpoint merges into the
     smaller one, and the vertices above it shift down by one *)
  let contract g e =
    let u, v = Graph.endpoints g e in
    let label w = if w = v then u else if w > v then w - 1 else w in
    Graph.of_edges (Graph.n g - 1)
      (Graph.fold_edges g
         (fun acc e' a b -> if e' = e then acc else (label a, label b) :: acc)
         [])
  in
  let rec go g =
    Graph.n g >= Graph.n h
    && Graph.m g >= Graph.m h
    &&
    if subgraph_isomorphic h g then true
    else begin
      let m = Graph.m g in
      let rec try_edge e =
        e < m
        &&
        (go (contract g e) || try_edge (e + 1))
      in
      try_edge 0
    end
  in
  go g

let is_series_parallel g =
  let n = Graph.n g in
  (* mutable adjacency sets *)
  let module S = Set.Make (Int) in
  let adj = Array.make n S.empty in
  Graph.iter_edges g (fun _ u v ->
      adj.(u) <- S.add v adj.(u);
      adj.(v) <- S.add u adj.(v));
  let alive = Array.make n true in
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if S.cardinal adj.(v) <= 2 then Queue.add v queue
  done;
  let remaining = ref n in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    if alive.(v) && S.cardinal adj.(v) <= 2 then begin
      alive.(v) <- false;
      decr remaining;
      let requeue w = if S.cardinal adj.(w) <= 2 then Queue.add w queue in
      (match S.elements adj.(v) with
      | [] -> ()
      | [ a ] ->
          adj.(a) <- S.remove v adj.(a);
          requeue a
      | [ a; b ] ->
          adj.(a) <- S.add b (S.remove v adj.(a));
          adj.(b) <- S.add a (S.remove v adj.(b));
          requeue a;
          requeue b
      | _ -> assert false (* lint: allow S001 cardinal <= 2 checked on queue *));
      adj.(v) <- S.empty
    end
  done;
  !remaining = 0

(* lint: allow U001 test oracle: brute-force clique-minor reference *)
let has_clique_minor g t =
  if t <= 1 then Graph.n g >= t
  else if t = 2 then Graph.m g >= 1
  else if t = 3 then not (Traversal.is_acyclic g)
  else if t = 4 then not (is_series_parallel g)
  else if t = 5 && Lr_planarity.is_planar g then false
  else has_minor (Generators.complete t) g
