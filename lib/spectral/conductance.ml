open Sparse_graph

let volume g mask =
  let s = ref 0 in
  Array.iteri (fun v inside -> if inside then s := !s + Graph.degree g v) mask;
  !s

let boundary g mask =
  Graph.fold_edges g
    (fun acc _ u v -> if mask.(u) <> mask.(v) then acc + 1 else acc)
    0

let trivial mask =
  let any = ref false and all = ref true in
  Array.iter
    (fun b ->
      if b then any := true else all := false)
    mask;
  (not !any) || !all

(* lint: allow U001 test oracle: recomputes the conductance a cut reports *)
let of_cut g mask =
  if trivial mask then 0.
  else begin
    let vol_s = volume g mask in
    let vol_rest = (2 * Graph.m g) - vol_s in
    let denom = min vol_s vol_rest in
    if denom = 0 then infinity
    else float_of_int (boundary g mask) /. float_of_int denom
  end

let sparsity_of_cut g mask =
  if trivial mask then 0.
  else begin
    let size_s = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mask in
    let denom = min size_s (Graph.n g - size_s) in
    float_of_int (boundary g mask) /. float_of_int denom
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
    ((if !best = infinity then 0. else !best), mask)
  end

let exact g = fst (exact_cut g)

let mask_of_list n vs =
  let mask = Array.make n false in
  List.iter (fun v -> mask.(v) <- true) vs;
  mask
