type mapping = {
  to_sub : int array;
  to_orig : int array;
  edge_to_orig : int array;
}

let induced_subgraph g vs =
  let n = Graph.n g in
  let to_sub = Array.make n (-1) in
  List.iter (fun v -> to_sub.(v) <- 0) vs;
  let sub_n = ref 0 and sub_m = ref 0 in
  for v = 0 to n - 1 do
    if to_sub.(v) >= 0 then begin
      to_sub.(v) <- !sub_n;
      incr sub_n;
      Graph.iter_neighbors g v (fun w ->
          if w < v && to_sub.(w) >= 0 then incr sub_m)
    end
  done;
  let to_orig = Array.make !sub_n 0 in
  Array.iteri (fun v i -> if i >= 0 then to_orig.(i) <- v) to_sub;
  (* new ids ascend with old ones and rows are sorted, so the kept edges
     come out in the lexicographic order of their new endpoints, which is
     the edge-id order Graph.of_edge_array assigns *)
  let ends = Array.make !sub_m (0, 0) in
  let edge_to_orig = Array.make !sub_m 0 in
  let next = ref 0 in
  Array.iteri
    (fun i v ->
      Graph.iter_incident g v (fun w e ->
          if w > v && to_sub.(w) >= 0 then begin
            ends.(!next) <- (i, to_sub.(w));
            edge_to_orig.(!next) <- e;
            incr next
          end))
    to_orig;
  (Graph.of_edge_array !sub_n ends, { to_sub; to_orig; edge_to_orig })

let identity_vertex_maps g =
  let n = Graph.n g in
  (Array.init n (fun i -> i), Array.init n (fun i -> i))

let subgraph_of_edges g es =
  let keep = Array.make (Graph.m g) false in
  List.iter (fun e -> keep.(e) <- true) es;
  let kept = ref [] in
  Graph.iter_edges g (fun e u v -> if keep.(e) then kept := (e, u, v) :: !kept);
  let kept = List.rev !kept in
  let sub = Graph.of_edges (Graph.n g) (List.map (fun (_, u, v) -> (u, v)) kept) in
  let edge_to_orig = Array.make (Graph.m sub) (-1) in
  List.iter (fun (e, u, v) -> edge_to_orig.(Graph.find_edge sub u v) <- e) kept;
  let to_sub, to_orig = identity_vertex_maps g in
  (sub, { to_sub; to_orig; edge_to_orig })

let remove_vertices g vs =
  let gone = Array.make (Graph.n g) false in
  List.iter (fun v -> gone.(v) <- true) vs;
  let survivors = ref [] in
  for v = Graph.n g - 1 downto 0 do
    if not gone.(v) then survivors := v :: !survivors
  done;
  induced_subgraph g !survivors

let add_edges g extra =
  let edges = Graph.fold_edges g (fun acc _ u v -> (u, v) :: acc) extra in
  Graph.of_edges (Graph.n g) edges

let inter_edges g labels =
  Graph.fold_edges g
    (fun acc e u v -> if labels.(u) <> labels.(v) then e :: acc else acc)
    []
  |> List.rev

type cluster = int list * Graph.t * mapping

let clusters ?(pool = Parallel.Pool.sequential) g labels k =
  let n = Graph.n g in
  if Array.length labels <> n then
    invalid_arg
      (Printf.sprintf "Graph_ops.clusters: %d labels for %d vertices"
         (Array.length labels) n);
  Array.iteri
    (fun v l ->
      if l < 0 || l >= k then
        invalid_arg
          (Printf.sprintf
             "Graph_ops.clusters: vertex %d has label %d, outside [0, %d]" v l
             (k - 1)))
    labels;
  let members = Array.make k [] in
  for v = n - 1 downto 0 do
    members.(labels.(v)) <- v :: members.(labels.(v))
  done;
  Parallel.Pool.map pool
    (fun vs ->
      let sub, mapping = induced_subgraph g vs in
      (vs, sub, mapping))
    members

let max_cluster_diameter ?(pool = Parallel.Pool.sequential) clusters =
  Parallel.Pool.map_reduce pool
    ~map:(fun (_, sub, _) ->
      if Traversal.is_connected sub then Traversal.diameter sub else max_int)
    ~reduce:max ~init:0 clusters

let split_components g labels =
  let n = Graph.n g in
  let out = Array.make n (-1) in
  let k = ref 0 in
  for s = 0 to n - 1 do
    if out.(s) < 0 then begin
      (* flood the class of s over same-label edges *)
      out.(s) <- !k;
      let stack = Stack.create () in
      Stack.push s stack;
      while not (Stack.is_empty stack) do
        let v = Stack.pop stack in
        Graph.iter_neighbors g v (fun w ->
            if out.(w) < 0 && labels.(w) = labels.(v) then begin
              out.(w) <- !k;
              Stack.push w stack
            end)
      done;
      incr k
    end
  done;
  (out, !k)
