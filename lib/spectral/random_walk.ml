open Sparse_graph

let stationary g =
  if Graph.m g = 0 then invalid_arg "Random_walk.stationary: graph has no edges";
  let vol = float_of_int (2 * Graph.m g) in
  Array.init (Graph.n g) (fun v -> float_of_int (Graph.degree g v) /. vol)

let step g p =
  let n = Graph.n g in
  let q = Array.make n 0. in
  for u = 0 to n - 1 do
    let d = Graph.degree g u in
    if d = 0 then q.(u) <- q.(u) +. p.(u)
    else begin
      q.(u) <- q.(u) +. (p.(u) /. 2.);
      let share = p.(u) /. (2. *. float_of_int d) in
      Graph.iter_neighbors g u (fun w -> q.(w) <- q.(w) +. share)
    end
  done;
  q

let is_mixed g p =
  let pi = stationary g in
  let n = float_of_int (Graph.n g) in
  let ok = ref true in
  (* the check is restricted to the support of the stationary distribution:
     a degree-0 vertex has pi = 0, so its threshold pi/n is 0 and any graph
     with an isolated vertex would report "never mixes" — even though the
     lazy walk is exact there (the mass never moves) *)
  Array.iteri
    (fun u pu ->
      if pi.(u) > 0. && abs_float (pu -. pi.(u)) > pi.(u) /. n then
        ok := false)
    p;
  !ok

let mixing_time_from g v ~max_t =
  let p = ref (Array.init (Graph.n g) (fun u -> if u = v then 1. else 0.)) in
  let rec go t =
    if is_mixed g !p then Some t
    else if t >= max_t then None
    else begin
      p := step g !p;
      go (t + 1)
    end
  in
  go 0

let mixing_time g ~max_t =
  (* starts outside the stationary support are skipped: the walk from a
     degree-0 vertex stays there forever, which is exact for its (trivial)
     component but can never match the stationary distribution of the rest
     of the graph *)
  let rec go v worst =
    if v = Graph.n g then Some worst
    else if Graph.degree g v = 0 then go (v + 1) worst
    else
      match mixing_time_from g v ~max_t with
      | None -> None
      | Some t -> go (v + 1) (max worst t)
  in
  if Graph.n g = 0 then None else go 0 0
