open Sparse_graph

type t = {
  name : string;
  holds : Graph.t -> bool;
  forbidden_clique : int;
}

let forest =
  { name = "forest"; holds = Traversal.is_acyclic; forbidden_clique = 3 }

let linear_forest =
  {
    name = "linear-forest";
    holds = (fun g -> Traversal.is_acyclic g && Graph.max_degree g <= 2);
    forbidden_clique = 3;
  }

let series_parallel =
  {
    name = "series-parallel";
    holds = Minor_check.is_series_parallel;
    forbidden_clique = 4;
  }

(* the near-linear left-right test is the decision fast path; Demoucron
   (Planarity.is_planar) stays available when faces are needed *)
let outerplanar_fast g =
  let n = Graph.n g in
  if n = 0 then true
  else begin
    let apex = n in
    let edges =
      Graph.fold_edges g (fun acc _ u v -> (u, v) :: acc)
        (List.init n (fun v -> (v, apex)))
    in
    Lr_planarity.is_planar (Graph.of_edges (n + 1) edges)
  end

let outerplanar =
  {
    name = "outerplanar";
    holds = outerplanar_fast;
    forbidden_clique = 4;
  }

let planar =
  { name = "planar"; holds = Lr_planarity.is_planar; forbidden_clique = 5 }

let all = [ forest; linear_forest; series_parallel; outerplanar; planar ]

(* minimum number of edge edits needed, lower-bounded structurally *)
let edit_lower_bound g p =
  let n = Graph.n g and m = Graph.m g in
  let _, comps = Traversal.components g in
  let cycle_rank = m - n + comps in
  match p.name with
  | "forest" -> cycle_rank
  | "linear-forest" ->
      let excess = ref 0 in
      for v = 0 to n - 1 do
        let d = Graph.degree g v in
        if d > 2 then excess := !excess + (d - 2)
      done;
      max cycle_rank ((!excess + 1) / 2)
  | "series-parallel" | "outerplanar" ->
      if n >= 2 then max 0 (m - ((2 * n) - 3)) else 0
  | "planar" -> if n >= 3 then max 0 (m - ((3 * n) - 6)) else 0
  | _ -> 0

let far_from ~epsilon g p =
  let m = Graph.m g in
  if m = 0 then false
  else
    float_of_int (edit_lower_bound g p) > epsilon *. float_of_int m
