open Sparse_graph

type result = {
  graph : Graph.t;
  mapping : Graph_ops.mapping;
  removed : int list;
}

let eliminate g =
  let n = Graph.n g in
  let removed = Array.make n false in
  (* 2-stars: each center keeps the pendant with the smallest id *)
  let kept_pendant = Array.make n (-1) in
  for u = 0 to n - 1 do
    if Graph.degree g u = 1 then begin
      let center = List.hd (Graph.neighbors g u) in
      if kept_pendant.(center) = -1 then kept_pendant.(center) <- u
      else removed.(u) <- true
    end
  done;
  (* 3-double-stars: spokes grouped by their hub pair; keep two *)
  let spokes = Hashtbl.create 16 in
  for u = 0 to n - 1 do
    if Graph.degree g u = 2 then begin
      match Graph.neighbors g u with
      | [ a; b ] ->
          let key = (Int.min a b, Int.max a b) in
          let cur = try Hashtbl.find spokes key with Not_found -> [] in
          Hashtbl.replace spokes key (u :: cur)
      | ns ->
          invalid_arg
            (Printf.sprintf
               "Preprocess.eliminate: vertex %d has degree 2 but %d \
                neighbor entries (self-loop or parallel edge?)"
               u (List.length ns))
    end
  done;
  Hashtbl.iter
    (fun _ us ->
      match List.rev us with
      | _ :: _ :: extras -> List.iter (fun u -> removed.(u) <- true) extras
      | _ -> ())
    spokes;
  let gone = ref [] in
  for u = n - 1 downto 0 do
    if removed.(u) then gone := u :: !gone
  done;
  let graph, mapping = Graph_ops.remove_vertices g !gone in
  { graph; mapping; removed = !gone }

let compose_mappings ~outer ~inner ~orig_n =
  (* inner maps original -> mid, outer maps mid -> final *)
  let to_orig =
    Array.map (fun mid -> inner.Graph_ops.to_orig.(mid)) outer.Graph_ops.to_orig
  in
  let to_sub = Array.make orig_n (-1) in
  Array.iteri (fun final orig -> to_sub.(orig) <- final) to_orig;
  let edge_to_orig =
    Array.map
      (fun mid_e -> inner.Graph_ops.edge_to_orig.(mid_e))
      outer.Graph_ops.edge_to_orig
  in
  { Graph_ops.to_sub; to_orig; edge_to_orig }

let eliminate_fixpoint g =
  let orig_n = Graph.n g in
  let rec go acc =
    let step = eliminate acc.graph in
    if step.removed = [] then acc
    else begin
      let mapping =
        compose_mappings ~outer:step.mapping ~inner:acc.mapping ~orig_n
      in
      let removed_orig =
        List.map (fun v -> acc.mapping.Graph_ops.to_orig.(v)) step.removed
      in
      go
        {
          graph = step.graph;
          mapping;
          removed = List.sort compare (removed_orig @ acc.removed);
        }
    end
  in
  let identity =
    {
      graph = g;
      mapping =
        {
          Graph_ops.to_sub = Array.init orig_n Fun.id;
          to_orig = Array.init orig_n Fun.id;
          edge_to_orig = Array.init (Graph.m g) Fun.id;
        };
      removed = [];
    }
  in
  go identity

(* lint: allow U001 test oracle: eliminate_fixpoint leaves no 2-star *)
let has_2_star g =
  let n = Graph.n g in
  let pendants = Array.make n 0 in
  let found = ref false in
  for u = 0 to n - 1 do
    if Graph.degree g u = 1 then begin
      let center = List.hd (Graph.neighbors g u) in
      pendants.(center) <- pendants.(center) + 1;
      if pendants.(center) >= 2 then found := true
    end
  done;
  !found

(* lint: allow U001 test oracle: eliminate_fixpoint leaves no 3-double-star *)
let has_3_double_star g =
  let spokes = Hashtbl.create 16 in
  let found = ref false in
  for u = 0 to Graph.n g - 1 do
    if Graph.degree g u = 2 then begin
      match Graph.neighbors g u with
      | [ a; b ] ->
          let key = (Int.min a b, Int.max a b) in
          let c = (try Hashtbl.find spokes key with Not_found -> 0) + 1 in
          Hashtbl.replace spokes key c;
          if c >= 3 then found := true
      | ns ->
          invalid_arg
            (Printf.sprintf
               "Preprocess.has_3_double_star: vertex %d has degree 2 but \
                %d neighbor entries (self-loop or parallel edge?)"
               u (List.length ns))
    end
  done;
  !found
