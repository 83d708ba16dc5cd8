open Sparse_graph

(* ------------------------------------------------------------------ *)
(* Demoucron's algorithm on one biconnected block                      *)
(* ------------------------------------------------------------------ *)

exception Non_planar

(* find any cycle in a biconnected graph with >= 3 vertices: walk the DFS
   tree until a back edge closes a cycle *)
let find_cycle g =
  let n = Graph.n g in
  let parent = Array.make n (-1) in
  let disc = Array.make n (-1) in
  let time = ref 0 in
  let cycle = ref [] in
  let rec dfs v =
    disc.(v) <- !time;
    incr time;
    Graph.iter_neighbors g v (fun w ->
        if !cycle = [] then begin
          if disc.(w) < 0 then begin
            parent.(w) <- v;
            dfs w
          end
          else if w <> parent.(v) && disc.(w) < disc.(v) then begin
            (* back edge v -> w: cycle w .. v along tree path *)
            let rec climb u acc = if u = w then u :: acc else climb parent.(u) (u :: acc) in
            cycle := climb v []
          end
        end)
  in
  let v0 = ref 0 in
  while Graph.degree g !v0 = 0 do incr v0 done;
  dfs !v0;
  !cycle

(* faces are stored as closed boundary cycles (vertex lists) *)

let rotate_to x cycle =
  let rec go pre = function
    | [] -> invalid_arg "rotate_to: vertex not on face"
    | y :: rest when y = x -> (y :: rest) @ List.rev pre
    | y :: rest -> go (y :: pre) rest
  in
  go [] cycle

(* split face [face] along [path] = a :: interior @ [b]; a and b must lie on
   the face boundary. Returns the two new faces. *)
let split_face face path =
  match path with
  | a :: _ ->
      let b = List.nth path (List.length path - 1) in
      let interior = List.filteri (fun i _ -> i > 0 && i < List.length path - 1) path in
      let rotated = rotate_to a face in
      let rec split_at pre = function
        | [] -> invalid_arg "split_face: second endpoint not on face"
        | y :: rest when y = b -> (List.rev (y :: pre), y :: rest)
        | y :: rest -> split_at (y :: pre) rest
      in
      (match rotated with
      | [] -> invalid_arg "split_face: empty face"
      | a0 :: rest ->
          let seg1, seg2_tail = split_at [ a0 ] rest in
          (* seg1 = a .. b ; seg2 = b .. (end) then wraps to a *)
          let f1 = seg1 @ List.rev interior in
          let f2 = seg2_tail @ [ a ] @ interior in
          (f1, f2))
  | [] -> invalid_arg "split_face: empty path"

type fragment = {
  attachments : int list;      (* embedded vertices touching the fragment *)
  path : int list;             (* a path between two attachments, interior
                                  vertices not yet embedded *)
  path_edges : int list;       (* edge ids along the path *)
}

(* compute all fragments of g relative to the embedded subgraph *)
let fragments g embedded_v embedded_e =
  let n = Graph.n g in
  let frags = ref [] in
  (* type A: single non-embedded edge between embedded vertices *)
  Graph.iter_edges g (fun e u v ->
      if (not embedded_e.(e)) && embedded_v.(u) && embedded_v.(v) then
        frags :=
          { attachments = [ u; v ]; path = [ u; v ]; path_edges = [ e ] }
          :: !frags);
  (* type B: connected components of non-embedded vertices *)
  let comp = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if (not embedded_v.(v)) && comp.(v) < 0 && Graph.degree g v > 0 then begin
      let c = !next in
      incr next;
      let queue = Queue.create () in
      comp.(v) <- c;
      Queue.add v queue;
      let members = ref [ v ] in
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        Graph.iter_neighbors g u (fun w ->
            if (not embedded_v.(w)) && comp.(w) < 0 then begin
              comp.(w) <- c;
              members := w :: !members;
              Queue.add w queue
            end)
      done;
      (* attachments: embedded neighbors of the component *)
      let attach = Hashtbl.create 8 in
      List.iter
        (fun u ->
          Graph.iter_neighbors g u (fun w ->
              if embedded_v.(w) then Hashtbl.replace attach w ()))
        !members;
      let attachments =
        Hashtbl.fold (fun k () acc -> k :: acc) attach []
        |> List.sort Int.compare
      in
      (* path between two attachments through the component: BFS from an
         attachment a entering only component vertices, stopping at the
         first embedded vertex b <> a *)
      match attachments with
      | [] | [ _ ] ->
          (* cannot happen inside a biconnected block *)
          raise Non_planar
      | a :: _ ->
          let prev = Array.make n (-2) in
          let prev_edge = Array.make n (-1) in
          let queue = Queue.create () in
          prev.(a) <- -1;
          Queue.add a queue;
          let target = ref (-1) in
          while !target < 0 && not (Queue.is_empty queue) do
            let u = Queue.pop queue in
            Graph.iter_incident g u (fun w e ->
                if !target < 0 && prev.(w) = -2 then begin
                  if (not embedded_v.(w)) && comp.(w) = c then begin
                    prev.(w) <- u;
                    prev_edge.(w) <- e;
                    Queue.add w queue
                  end
                  else if embedded_v.(w) && w <> a && u <> a then begin
                    (* path must pass through the component: require the
                       hop before w to be a component vertex *)
                    prev.(w) <- u;
                    prev_edge.(w) <- e;
                    target := w
                  end
                end)
          done;
          if !target < 0 then raise Non_planar;
          let rec build u acc eacc =
            if u = a then (a :: acc, eacc)
            else build prev.(u) (u :: acc) (prev_edge.(u) :: eacc)
          in
          let path, path_edges = build !target [] [] in
          frags := { attachments; path; path_edges } :: !frags
    end
  done;
  !frags

(* membership tables for each face, rebuilt once per embedding step *)
let face_tables faces =
  List.map
    (fun face ->
      let t = Hashtbl.create (List.length face) in
      List.iter (fun v -> Hashtbl.replace t v ()) face;
      (face, t))
    faces

let face_hosts table frag =
  List.for_all (fun a -> Hashtbl.mem table a) frag.attachments

let embed_block_exn g =
  let n = Graph.n g in
  let m = Graph.m g in
  if n >= 3 && m > (3 * n) - 6 then raise Non_planar;
  if m = 1 then
    (* a bridge block: trivial embedding with one (degenerate) face *)
    match Graph.edges g with
    | [| (u, v) |] -> [ [ u; v ] ]
    | _ -> assert false (* lint: allow S001 guarded by m = 1 above *)
  else begin
    let cycle = find_cycle g in
    if List.length cycle < 3 then raise Non_planar;
    let embedded_v = Array.make n false in
    let embedded_e = Array.make m false in
    List.iter (fun v -> embedded_v.(v) <- true) cycle;
    let mark_path_edges path =
      let rec go = function
        | u :: (v :: _ as rest) ->
            embedded_e.(Graph.find_edge g u v) <- true;
            go rest
        | _ -> ()
      in
      go path
    in
    mark_path_edges (cycle @ [ List.hd cycle ]);
    let faces = ref [ cycle; List.rev cycle ] in
    let remaining = ref (m - List.length cycle) in
    while !remaining > 0 do
      let frags = fragments g embedded_v embedded_e in
      if frags = [] then
        (* no fragment but edges remain: impossible in a connected block *)
        raise Non_planar;
      (* admissible faces per fragment *)
      let indexed_faces =
        List.mapi (fun idx (face, table) -> (idx, face, table))
          (face_tables !faces)
      in
      (* for each fragment: its first admissible face and whether a second
         exists; a fragment with none certifies non-planarity, a fragment
         with exactly one must be embedded there (Demoucron's rule) *)
      let choose () =
        let fallback = ref None in
        let unique = ref None in
        List.iter
          (fun fr ->
            if !unique = None then begin
              let hosts = ref [] in
              (try
                 List.iter
                   (fun (idx, face, table) ->
                     if face_hosts table fr then begin
                       hosts := (idx, face) :: !hosts;
                       if List.length !hosts >= 2 then raise Exit
                     end)
                   indexed_faces
               with Exit -> ());
              match !hosts with
              | [] -> raise Non_planar
              | [ h ] -> unique := Some (fr, h)
              | h :: _ -> if !fallback = None then fallback := Some (fr, h)
            end)
          frags;
        match (!unique, !fallback) with
        | Some x, _ -> x
        | None, Some x -> x
        | None, None -> raise Non_planar
      in
      let fr, (face_idx, face) = choose () in
      let f1, f2 = split_face face fr.path in
      faces :=
        f1 :: f2 :: List.filteri (fun i _ -> i <> face_idx) !faces;
      List.iter (fun v -> embedded_v.(v) <- true) fr.path;
      List.iter (fun e -> embedded_e.(e) <- true) fr.path_edges;
      remaining := !remaining - List.length fr.path_edges
    done;
    !faces
  end

(* lint: allow U001 test oracle: planar faces checked against Lr_planarity *)
let embed_block g =
  if not (Blocks.is_biconnected g) then
    invalid_arg "Planarity.embed_block: graph is not biconnected";
  match embed_block_exn g with
  | faces -> Some faces
  | exception Non_planar -> None

let is_planar g =
  let n = Graph.n g in
  let m = Graph.m g in
  if m = 0 then true
  else if n >= 3 && m > (3 * n) - 6 then false
  else begin
    let block_list = Blocks.blocks g in
    List.for_all
      (fun edge_ids ->
        if List.length edge_ids <= 2 then true
        else begin
          let vertices =
            List.concat_map
              (fun e ->
                let u, v = Graph.endpoints g e in
                [ u; v ])
              edge_ids
          in
          let sub_edges =
            List.map
              (fun e ->
                let u, v = Graph.endpoints g e in
                (u, v))
              edge_ids
          in
          (* compact the block into its own graph *)
          let uniq = List.sort_uniq compare vertices in
          let index = Hashtbl.create 16 in
          List.iteri (fun i v -> Hashtbl.add index v i) uniq;
          let block =
            Graph.of_edges (List.length uniq)
              (List.map
                 (fun (u, v) ->
                   (Hashtbl.find index u, Hashtbl.find index v))
                 sub_edges)
          in
          match embed_block_exn block with
          | _ -> true
          | exception Non_planar -> false
        end)
      block_list
  end
