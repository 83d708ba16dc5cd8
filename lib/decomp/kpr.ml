open Sparse_graph

(* one chopping pass applied within each current cluster: relabel so that
   vertices in the same band of the same cluster share a new label *)
let chop_once g labels ~width st =
  let n = Graph.n g in
  (* group members by label *)
  let groups = Hashtbl.create 16 in
  for v = n - 1 downto 0 do
    let cur = try Hashtbl.find groups labels.(v) with Not_found -> [] in
    Hashtbl.replace groups labels.(v) (v :: cur)
  done;
  let fresh = ref 0 in
  let out = Array.make n (-1) in
  (* iterate groups in ascending label order: the offset draws and the
     fresh-label counter consume shared state, so hash order must not
     decide which group draws first *)
  let group_list =
    Hashtbl.fold (fun l members acc -> (l, members) :: acc) groups []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.iter
    (fun (_, members) ->
      (* BFS within the group; one BFS per connected piece *)
      let in_group = Hashtbl.create 16 in
      List.iter (fun v -> Hashtbl.add in_group v ()) members;
      let dist = Hashtbl.create 16 in
      List.iter
        (fun src ->
          if not (Hashtbl.mem dist src) then begin
            let offset = Random.State.int st width in
            let queue = Queue.create () in
            Hashtbl.add dist src 0;
            Queue.add src queue;
            let piece = ref [ src ] in
            while not (Queue.is_empty queue) do
              let v = Queue.pop queue in
              let dv = Hashtbl.find dist v in
              Graph.iter_neighbors g v (fun w ->
                  if Hashtbl.mem in_group w && not (Hashtbl.mem dist w) then begin
                    Hashtbl.add dist w (dv + 1);
                    piece := w :: !piece;
                    Queue.add w queue
                  end)
            done;
            (* band index of v: floor((d + offset) / width); bands of this
               piece get fresh labels *)
            let band_label = Hashtbl.create 8 in
            List.iter
              (fun v ->
                let band = (Hashtbl.find dist v + offset) / width in
                let l =
                  match Hashtbl.find_opt band_label band with
                  | Some l -> l
                  | None ->
                      let l = !fresh in
                      incr fresh;
                      Hashtbl.add band_label band l;
                      l
                in
                out.(v) <- l)
              !piece
          end)
        members)
    group_list;
  out

let chop g ~width ~levels ~seed =
  if width < 1 || levels < 1 then
    invalid_arg "Kpr.chop: need width >= 1 and levels >= 1";
  Obs.Span.with_ "kpr.chop" @@ fun () ->
  let st = Random.State.make [| seed; 547 |] in
  let labels = ref (Array.make (Graph.n g) 0) in
  for level = 1 to levels do
    Obs.Span.with_ (Printf.sprintf "level-%d" level) (fun () ->
        labels := chop_once g !labels ~width st)
  done;
  (* bands may be internally disconnected; split into connected clusters so
     the partition has finite strong diameters *)
  let split, _ = Graph_ops.split_components g !labels in
  let part = Partition.of_labels g split in
  Obs.Metric.count "kpr.clusters" part.Partition.k;
  part

let ldd g ~epsilon ~levels ~seed =
  if not (epsilon > 0.) then invalid_arg "Kpr.ldd: epsilon must be > 0";
  let width = max 1 (int_of_float (ceil (float_of_int levels /. epsilon))) in
  let rec attempt i best_p best_frac =
    if i >= 20 then best_p
    else begin
      let p = chop g ~width ~levels ~seed:(seed + (101 * i)) in
      let frac = Partition.cut_fraction g p in
      if frac <= epsilon then p
      else if frac < best_frac then attempt (i + 1) p frac
      else attempt (i + 1) best_p best_frac
    end
  in
  let p0 = chop g ~width ~levels ~seed in
  let f0 = Partition.cut_fraction g p0 in
  if f0 <= epsilon then p0 else attempt 1 p0 f0
