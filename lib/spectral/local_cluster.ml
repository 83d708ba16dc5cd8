open Sparse_graph

(* Andersen-Chung-Lang push: maintain (p, r) with p the approximation and r
   the residual; repeatedly push at a vertex whose residual exceeds
   eps * deg, moving alpha of it into p and spreading the rest (lazily) to
   the neighbors. *)
let ppr g ~seed_vertex ~alpha ~eps =
  if alpha <= 0. || alpha >= 1. then
    invalid_arg "Local_cluster.ppr: need 0 < alpha < 1";
  if eps <= 0. then invalid_arg "Local_cluster.ppr: need eps > 0";
  let n = Graph.n g in
  if seed_vertex < 0 || seed_vertex >= n then
    invalid_arg "Local_cluster.ppr: seed vertex out of range";
  let p = Hashtbl.create 64 in
  let r = Hashtbl.create 64 in
  let get tbl v = try Hashtbl.find tbl v with Not_found -> 0. in
  Hashtbl.replace r seed_vertex 1.;
  let queue = Queue.create () in
  Queue.add seed_vertex queue;
  let in_queue = Hashtbl.create 64 in
  Hashtbl.replace in_queue seed_vertex ();
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Hashtbl.remove in_queue v;
    let d = float_of_int (Int.max 1 (Graph.degree g v)) in
    let rv = get r v in
    if rv > eps *. d then begin
      Hashtbl.replace p v (get p v +. (alpha *. rv));
      (* lazy walk: half of the non-absorbed mass stays, half spreads *)
      let keep = (1. -. alpha) *. rv /. 2. in
      Hashtbl.replace r v keep;
      let share = (1. -. alpha) *. rv /. (2. *. d) in
      Graph.iter_neighbors g v (fun w ->
          Hashtbl.replace r w (get r w +. share);
          let dw = float_of_int (Int.max 1 (Graph.degree g w)) in
          if get r w > eps *. dw && not (Hashtbl.mem in_queue w) then begin
            Hashtbl.replace in_queue w ();
            Queue.add w queue
          end);
      (* the kept residual may itself still exceed the threshold *)
      if keep > eps *. d && not (Hashtbl.mem in_queue v) then begin
        Hashtbl.replace in_queue v ();
        Queue.add v queue
      end
    end
  done;
  Hashtbl.fold (fun v mass acc -> (v, mass) :: acc) p []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let sweep_cut g vector =
  let n = Graph.n g in
  let support =
    List.filter (fun (_, mass) -> mass > 0.) vector
    |> List.map (fun (v, mass) ->
           (v, mass /. float_of_int (max 1 (Graph.degree g v))))
    |> List.sort (fun (va, a) (vb, b) ->
           (* descending mass; ties broken by ascending vertex id so the
              sweep order (and hence the cut) is well-defined *)
           let c = compare b a in
           if c <> 0 then c else compare va vb)
  in
  if support = [] then invalid_arg "Local_cluster.sweep_cut: empty support";
  if List.length support >= n then
    invalid_arg "Local_cluster.sweep_cut: support covers the whole graph";
  let total_vol = 2 * Graph.m g in
  let inside = Array.make n false in
  let cut = ref 0 and vol = ref 0 in
  let best = ref infinity in
  let best_prefix = ref 0 in
  List.iteri
    (fun i (v, _) ->
      let to_inside =
        Graph.fold_neighbors g v
          (fun acc w -> if inside.(w) then acc + 1 else acc)
          0
      in
      inside.(v) <- true;
      cut := !cut + Graph.degree g v - (2 * to_inside);
      vol := !vol + Graph.degree g v;
      let denom = min !vol (total_vol - !vol) in
      let phi =
        if denom = 0 then if !cut = 0 then 0. else infinity
        else float_of_int !cut /. float_of_int denom
      in
      if phi < !best then begin
        best := phi;
        best_prefix := i + 1
      end)
    support;
  let side = Array.make n false in
  List.iteri
    (fun i (v, _) -> if i < !best_prefix then side.(v) <- true)
    support;
  { Sweep_cut.side; conductance = !best; lambda2 = None }

let find g ~seed_vertex ~target_volume =
  let eps = 1. /. (10. *. float_of_int (max 1 target_volume)) in
  let vector = ppr g ~seed_vertex ~alpha:0.05 ~eps in
  sweep_cut g vector
