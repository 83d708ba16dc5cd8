open Sparse_graph

let region_growing g ~epsilon =
  if not (epsilon > 0.) then invalid_arg "Ldd.region_growing: epsilon must be > 0";
  let n = Graph.n g in
  let labels = Array.make n (-1) in
  let next = ref 0 in
  for seed = 0 to n - 1 do
    if labels.(seed) < 0 then begin
      let c = !next in
      incr next;
      (* grow a BFS ball over unassigned vertices until the boundary is at
         most epsilon times the internal edge count *)
      let in_ball = Array.make n false in
      let ball = ref [ seed ] in
      in_ball.(seed) <- true;
      let frontier = ref [ seed ] in
      let internal = ref 0 in
      let stop = ref false in
      while not !stop do
        (* boundary: edges from the ball to unassigned outside vertices *)
        let boundary = ref 0 in
        let next_layer = ref [] in
        let seen_next = Hashtbl.create 16 in
        List.iter
          (fun v ->
            Graph.iter_neighbors g v (fun w ->
                if (not in_ball.(w)) && labels.(w) < 0 then begin
                  incr boundary;
                  if not (Hashtbl.mem seen_next w) then begin
                    Hashtbl.add seen_next w ();
                    next_layer := w :: !next_layer
                  end
                end))
          !frontier;
        if
          !boundary = 0
          || float_of_int !boundary <= epsilon *. float_of_int !internal
        then stop := true
        else begin
          (* absorb the next layer *)
          List.iter (fun w -> in_ball.(w) <- true) !next_layer;
          (* internal edges gained: all edges from new layer into the ball
             (including within the new layer) *)
          List.iter
            (fun w ->
              Graph.iter_neighbors g w (fun x ->
                  if in_ball.(x) && (x < w || not (Hashtbl.mem seen_next x))
                  then incr internal))
            !next_layer;
          ball := !next_layer @ !ball;
          frontier := !next_layer
        end
      done;
      List.iter (fun v -> labels.(v) <- c) !ball
    end
  done;
  Partition.of_labels g labels

let mpx g ~beta ~seed =
  if beta <= 0. then invalid_arg "Ldd.mpx: beta must be > 0";
  let n = Graph.n g in
  let st = Random.State.make [| seed; 467 |] in
  let delta =
    Array.init n (fun _ ->
        let u = max 1e-12 (Random.State.float st 1.) in
        -.log u /. beta)
  in
  (* multi-source Dijkstra over keys d(u, v) - delta_u; unit edge lengths *)
  let dist = Array.make n infinity in
  let owner = Array.make n (-1) in
  (* array-based binary min-heap of (key, vertex, source) entries *)
  let module H = struct
    type entry = { key : float; v : int; s : int }

    let data = ref (Array.make 16 { key = 0.; v = 0; s = 0 })
    let len = ref 0

    let swap i j =
      let t = !data.(i) in
      !data.(i) <- !data.(j);
      !data.(j) <- t

    let push key v s =
      if !len = Array.length !data then begin
        let bigger = Array.make (2 * !len) !data.(0) in
        Array.blit !data 0 bigger 0 !len;
        data := bigger
      end;
      !data.(!len) <- { key; v; s };
      incr len;
      let i = ref (!len - 1) in
      while !i > 0 && !data.((!i - 1) / 2).key > !data.(!i).key do
        swap ((!i - 1) / 2) !i;
        i := (!i - 1) / 2
      done

    let pop () =
      if !len = 0 then None
      else begin
        let top = !data.(0) in
        decr len;
        !data.(0) <- !data.(!len);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let s = ref !i in
          if l < !len && !data.(l).key < !data.(!s).key then s := l;
          if r < !len && !data.(r).key < !data.(!s).key then s := r;
          if !s = !i then continue := false
          else begin
            swap !i !s;
            i := !s
          end
        done;
        Some top
      end
  end in
  for v = 0 to n - 1 do
    H.push (-.delta.(v)) v v
  done;
  let finished = ref 0 in
  while !finished < n do
    match H.pop () with
    | None -> finished := n
    | Some { key; v; s } ->
        if key < dist.(v) then begin
          dist.(v) <- key;
          owner.(v) <- s;
          incr finished;
          Graph.iter_neighbors g v (fun w ->
              if key +. 1. < dist.(w) then H.push (key +. 1.) w s)
        end
  done;
  Partition.of_labels g owner
