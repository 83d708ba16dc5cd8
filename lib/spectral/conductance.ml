open Sparse_graph

(* lint: allow U001 test oracle: recomputes the conductance a cut reports *)
let of_cut g mask =
  let vol_s = ref 0 and size_s = ref 0 in
  Array.iteri
    (fun v inside ->
      if inside then begin
        vol_s := !vol_s + Graph.degree g v;
        incr size_s
      end)
    mask;
  if !size_s = 0 || !size_s = Array.length mask then 0.
  else begin
    let boundary =
      Graph.fold_edges g
        (fun acc _ u v -> if mask.(u) <> mask.(v) then acc + 1 else acc)
        0
    in
    let denom = min !vol_s ((2 * Graph.m g) - !vol_s) in
    if denom = 0 then infinity
    else float_of_int boundary /. float_of_int denom
  end

let enumeration_limit = 24

let exact_cut g =
  let n = Graph.n g in
  if n > enumeration_limit then
    invalid_arg "Conductance.exact: graph too large for enumeration";
  if n < 2 then (0., Array.make n false)
  else begin
    let adj = Array.make n 0 in
    Graph.iter_edges g (fun _ u v ->
        adj.(u) <- adj.(u) lor (1 lsl v);
        adj.(v) <- adj.(v) lor (1 lsl u));
    let deg = Array.init n (Graph.degree g) in
    let total_vol = 2 * Graph.m g in
    let best = ref infinity in
    let best_mask = ref 1 in
    (* fix vertex 0 inside S to halve the enumeration *)
    let half = 1 lsl (n - 1) in
    for rest = 0 to half - 1 do
      let s = (rest lsl 1) lor 1 in
      if s <> (1 lsl n) - 1 then begin
        let vol = ref 0 and cut = ref 0 in
        for v = 0 to n - 1 do
          if s land (1 lsl v) <> 0 then begin
            vol := !vol + deg.(v);
            cut := !cut + Popcount.popcount (adj.(v) land lnot s)
          end
        done;
        let denom = Int.min !vol (total_vol - !vol) in
        let phi =
          if denom = 0 then infinity
          else float_of_int !cut /. float_of_int denom
        in
        if phi < !best then begin
          best := phi;
          best_mask := s
        end
      end
    done;
    let mask = Array.init n (fun v -> !best_mask land (1 lsl v) <> 0) in
    ((if Float.is_finite !best then !best else 0.), mask)
  end

let exact g = fst (exact_cut g)
