open Sparse_graph

let weight g w mate =
  let total = ref 0 in
  Array.iteri
    (fun v m -> if m > v then total := !total + Weights.get w (Graph.find_edge g v m))
    mate;
  !total

let greedy g w =
  let n = Graph.n g in
  let mate = Array.make n (-1) in
  let order = Array.init (Graph.m g) Fun.id in
  Array.sort
    (fun a b -> compare (- Weights.get w a, a) (- Weights.get w b, b))
    order;
  Array.iter
    (fun e ->
      let u, v = Graph.endpoints g e in
      if mate.(u) = -1 && mate.(v) = -1 then begin
        mate.(u) <- v;
        mate.(v) <- u
      end)
    order;
  mate

let path_growing g w =
  let n = Graph.n g in
  let alive = Array.make n true in
  let m1 = ref [] and m2 = ref [] in
  let heaviest_neighbor x =
    Graph.fold_neighbors g x
      (fun best y ->
        if not alive.(y) then best
        else begin
          let wy = Weights.get w (Graph.find_edge g x y) in
          match best with
          | None -> Some (y, wy)
          | Some (_, bw) -> if wy > bw then Some (y, wy) else best
        end)
      None
  in
  for start = 0 to n - 1 do
    if alive.(start) then begin
      let x = ref start in
      let side = ref 1 in
      let continue = ref true in
      while !continue do
        match heaviest_neighbor !x with
        | None ->
            alive.(!x) <- false;
            continue := false
        | Some (y, _) ->
            let e = Graph.find_edge g !x y in
            if !side = 1 then m1 := e :: !m1 else m2 := e :: !m2;
            side := 3 - !side;
            alive.(!x) <- false;
            x := y
      done
    end
  done;
  let to_mate edges =
    let mate = Array.make n (-1) in
    List.iter
      (fun e ->
        let u, v = Graph.endpoints g e in
        (* edges on a path alternate, so both endpoints are free here *)
        if mate.(u) = -1 && mate.(v) = -1 then begin
          mate.(u) <- v;
          mate.(v) <- u
        end)
      edges;
    mate
  in
  let c1 = to_mate !m1 and c2 = to_mate !m2 in
  if weight g w c1 >= weight g w c2 then c1 else c2

let local_search g w ?init ~len ~passes () =
  let n = Graph.n g in
  let mate =
    match init with Some m -> Array.copy m | None -> Array.make n (-1)
  in
  let wt e = Weights.get w e in
  let try_improve u v =
    (* consider toggling non-matching edge (u, v) with local repairs *)
    if mate.(u) = v then false
    else begin
      let e = Graph.find_edge g u v in
      let mu = mate.(u) and mv = mate.(v) in
      match (mu, mv) with
      | -1, -1 ->
          mate.(u) <- v;
          mate.(v) <- u;
          true
      | m, -1 when len >= 2 ->
          if wt e > wt (Graph.find_edge g u m) then begin
            mate.(m) <- -1;
            mate.(u) <- v;
            mate.(v) <- u;
            true
          end
          else false
      | -1, m when len >= 2 ->
          if wt e > wt (Graph.find_edge g v m) then begin
            mate.(m) <- -1;
            mate.(u) <- v;
            mate.(v) <- u;
            true
          end
          else false
      | mu, mv when len >= 3 && mu >= 0 && mv >= 0 ->
          let old = wt (Graph.find_edge g u mu) + wt (Graph.find_edge g v mv) in
          let cross =
            if mu <> mv && Graph.mem_edge g mu mv then
              Some (Graph.find_edge g mu mv)
            else None
          in
          let fresh = wt e + (match cross with Some c -> wt c | None -> 0) in
          if fresh > old then begin
            mate.(u) <- v;
            mate.(v) <- u;
            (match cross with
            | Some _ ->
                mate.(mu) <- mv;
                mate.(mv) <- mu
            | None ->
                mate.(mu) <- -1;
                mate.(mv) <- -1);
            true
          end
          else false
      | _ -> false
    end
  in
  for _ = 1 to passes do
    Graph.iter_edges g (fun _ u v -> ignore (try_improve u v))
  done;
  mate
