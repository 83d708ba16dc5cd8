(* The deterministic aggregate: a span tree keyed by span name, each node
   carrying a completion count and integer metrics. Every merge operation
   is commutative and associative (sums, maxima), and every traversal is
   over sorted keys, so the result is independent of the order per-domain
   buffers were registered or drained in — the property behind the
   byte-identical-across---jobs profile contract.

   Metrics live in three maps:
   - [sums]    deterministic integer counters (rounds, messages, bits, ...)
   - [maxes]   deterministic max-merged values (peak edge bits, depth, ...)
   - [volatile] timing-class values (span ns, GC words): excluded from the
     deterministic exports and from parity comparisons. *)

module SMap = Map.Make (String)

type node = {
  count : int;
  sums : int SMap.t;
  maxes : int SMap.t;
  volatile : int SMap.t;
  children : node SMap.t;
}

let empty =
  {
    count = 0;
    sums = SMap.empty;
    maxes = SMap.empty;
    volatile = SMap.empty;
    children = SMap.empty;
  }

let merge_int_map f a b = SMap.union (fun _ x y -> Some (f x y)) a b

let rec merge a b =
  {
    count = a.count + b.count;
    sums = merge_int_map ( + ) a.sums b.sums;
    maxes = merge_int_map max a.maxes b.maxes;
    volatile = merge_int_map ( + ) a.volatile b.volatile;
    children = SMap.union (fun _ x y -> Some (merge x y)) a.children b.children;
  }

(* graft [row] (a leaf-shaped node) onto the tree at [path] *)
let rec add_at tree path row =
  match path with
  | [] -> merge tree row
  | name :: rest ->
      let child =
        Option.value (SMap.find_opt name tree.children) ~default:empty
      in
      {
        tree with
        children = SMap.add name (add_at child rest row) tree.children;
      }

let find_path tree path =
  let rec go node = function
    | [] -> Some node
    | name :: rest -> (
        match SMap.find_opt name node.children with
        | Some c -> go c rest
        | None -> None)
  in
  go tree path

(* global metric totals: sums summed, maxes maxed, over the whole tree *)
let totals tree =
  let rec go (sums, maxes) node =
    let sums = merge_int_map ( + ) sums node.sums in
    let maxes = merge_int_map max maxes node.maxes in
    SMap.fold (fun _ c acc -> go acc c) node.children (sums, maxes)
  in
  go (SMap.empty, SMap.empty) tree

(* ------------------------------------------------------------------ *)
(* JSON forms                                                           *)
(* ------------------------------------------------------------------ *)

let int_map_json m =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (SMap.bindings m))

(* deterministic form: no volatile metrics, children sorted by name *)
let rec to_json node =
  let fields = [ ("count", Json.Int node.count) ] in
  let fields =
    if SMap.is_empty node.sums then fields
    else fields @ [ ("metrics", int_map_json node.sums) ]
  in
  let fields =
    if SMap.is_empty node.maxes then fields
    else fields @ [ ("max", int_map_json node.maxes) ]
  in
  let fields =
    if SMap.is_empty node.children then fields
    else
      fields
      @ [
          ( "children",
            Json.Obj
              (List.map
                 (fun (name, c) -> (name, to_json c))
                 (SMap.bindings node.children)) );
        ]
  in
  Json.Obj fields

(* volatile mirror: the timing-class metrics, same tree shape *)
let rec volatile_json node =
  let fields =
    List.map (fun (k, v) -> (k, Json.Int v)) (SMap.bindings node.volatile)
  in
  let fields =
    if SMap.is_empty node.children then fields
    else
      fields
      @ [
          ( "children",
            Json.Obj
              (List.map
                 (fun (name, c) -> (name, volatile_json c))
                 (SMap.bindings node.children)) );
        ]
  in
  Json.Obj fields

(* ------------------------------------------------------------------ *)
(* ASCII rendering                                                      *)
(* ------------------------------------------------------------------ *)

let span_tree_lines tree =
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let metrics_suffix node =
    let cells =
      List.map
        (fun (k, v) -> Printf.sprintf "%s=%d" k v)
        (SMap.bindings node.sums)
      @ List.map
          (fun (k, v) -> Printf.sprintf "%s<=%d" k v)
          (SMap.bindings node.maxes)
    in
    let ns =
      match SMap.find_opt "ns" node.volatile with
      | Some ns -> [ Printf.sprintf "%.2fms" (float_of_int ns /. 1e6) ]
      | None -> []
    in
    match ns @ cells with
    | [] -> ""
    | cs -> "  [" ^ String.concat " " cs ^ "]"
  in
  let rec go indent name node =
    add "%s%s x%d%s" (String.make indent ' ') name node.count
      (metrics_suffix node);
    SMap.iter (fun n c -> go (indent + 2) n c) node.children
  in
  SMap.iter (fun n c -> go 0 n c) tree.children;
  List.rev !lines

let to_ascii tree = String.concat "\n" (span_tree_lines tree) ^ "\n"
