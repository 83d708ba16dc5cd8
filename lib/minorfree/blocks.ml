open Sparse_graph

(* Iterative DFS computing disc/low values and an edge stack for
   blocks. *)

type frame = {
  vertex : int;
  parent_edge : int;  (* edge id used to reach vertex, -1 at roots *)
  mutable cursor : int;  (* next incidence index to explore *)
  mutable low : int;
}

let blocks g =
  let n = Graph.n g in
  let disc = Array.make n (-1) in
  let time = ref 0 in
  let edge_stack = ref [] in
  let blocks = ref [] in
  (* incidence arrays for cursor-based iteration *)
  let inc =
    Array.init n (fun v ->
        let acc = ref [] in
        Graph.iter_incident g v (fun w e -> acc := (w, e) :: !acc);
        Array.of_list (List.rev !acc))
  in
  let pop_block until_edge =
    let rec go acc =
      match !edge_stack with
      | [] -> acc
      | e :: rest ->
          edge_stack := rest;
          if e = until_edge then e :: acc else go (e :: acc)
    in
    let b = go [] in
    if b <> [] then blocks := b :: !blocks
  in
  for root = 0 to n - 1 do
    if disc.(root) < 0 then begin
      disc.(root) <- !time;
      incr time;
      let stack =
        ref
          [ { vertex = root; parent_edge = -1; cursor = 0; low = disc.(root) } ]
      in
      let continue = ref true in
      while !continue do
        match !stack with
        | [] -> continue := false
        | frame :: rest ->
            let v = frame.vertex in
            if frame.cursor < Array.length inc.(v) then begin
              let w, e = inc.(v).(frame.cursor) in
              frame.cursor <- frame.cursor + 1;
              if e <> frame.parent_edge then begin
                if disc.(w) < 0 then begin
                  (* tree edge *)
                  edge_stack := e :: !edge_stack;
                  disc.(w) <- !time;
                  incr time;
                  stack :=
                    { vertex = w; parent_edge = e; cursor = 0; low = disc.(w) }
                    :: !stack
                end
                else if disc.(w) < disc.(v) then begin
                  (* back edge to an ancestor *)
                  edge_stack := e :: !edge_stack;
                  if disc.(w) < frame.low then frame.low <- disc.(w)
                end
              end
            end
            else begin
              (* finished v: propagate low to parent, close blocks *)
              stack := rest;
              match rest with
              | [] -> ()
              | parent :: _ ->
                  let u = parent.vertex in
                  if frame.low < parent.low then parent.low <- frame.low;
                  (* u separates the finished subtree: close its block *)
                  if frame.low >= disc.(u) then pop_block frame.parent_edge
            end
      done
    end
  done;
  !blocks
