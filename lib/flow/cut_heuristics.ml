open Sparse_graph

(* Cheap cut attempts tried before any flow is run: a disconnected
   component (conductance zero), a degree-order sweep (splits skewed
   degree profiles such as stars-with-tails), and a BFS double-sweep
   (exact on paths, trees, and cycles). Each costs O(n + m): both sweeps
   order the vertices by an integer key with a counting sort. A hit
   saves an entire cut-matching game on the cluster. *)

type cut = {
  side : bool array;
  conductance : float;
  source : string;  (* "component" | "degree" | "bfs" *)
}

(* one BFS from vertex 0, on Traversal's allocation-free sweep kernel *)
let component_cut g =
  let n = Graph.n g in
  if n <= 1 then None
  else begin
    let dist = Traversal.bfs g 0 in
    if Array.for_all (fun d -> d >= 0) dist then None
    else
      Some
        { side = Array.map (fun d -> d >= 0) dist; conductance = 0.;
          source = "component" }
  end

let degree_cut g =
  let n = Graph.n g in
  if n <= 1 then None
  else
    let c =
      Spectral.Sweep_cut.(sweep_order g (key_order (Array.init n (Graph.degree g))))
    in
    Some { side = c.Spectral.Sweep_cut.side;
           conductance = c.Spectral.Sweep_cut.conductance;
           source = "degree" }

let bfs_cut g =
  let n = Graph.n g in
  if n <= 1 || Graph.m g = 0 then None
  else
    let c = Spectral.Sweep_cut.bfs_sweep g in
    Some { side = c.Spectral.Sweep_cut.side;
           conductance = c.Spectral.Sweep_cut.conductance;
           source = "bfs" }

(* best heuristic cut strictly sparser than [tau], if any; the component
   cut short-circuits (the game assumes a connected cluster) *)
let cheapest g ~tau =
  match component_cut g with
  | Some _ as hit -> hit
  | None ->
      let better best cand =
        match (best, cand) with
        | None, c -> c
        | b, None -> b
        | Some b, Some c -> if c.conductance < b.conductance then cand else best
      in
      let best = better (degree_cut g) (bfs_cut g) in
      (match best with
       | Some c when c.conductance < tau -> best
       | _ -> None)
