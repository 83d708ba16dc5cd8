(* Decompose the flow held in a residual network into source -> sink paths.

   Vertices with positive divergence originate that many units; the walk
   follows arcs carrying positive flow until it reaches a vertex with
   negative remaining divergence (a net absorber), then subtracts the
   path's bottleneck. Cycles in the flow (push-relabel preflows can leave
   them) are cancelled in place when the walk revisits an on-path vertex,
   so the walk always terminates; pure circulations disjoint from every
   source are left untouched — they connect no source-sink pair. Per-vertex
   cursor pointers make the total work linear in the flow's support plus
   the emitted path lengths. *)

(* path i walks vertices.(i) (source first, sink last) along the edges
   edges.(i), carrying amounts.(i) units; paths come in ascending source
   order, and within a source the last walk first *)
type t = {
  vertices : int array array;
  edges : int array array;
  amounts : int array;
  total : int;        (* total units decomposed *)
  max_length : int;
}

type walker = {
  net : Net.t;
  flow : int array;      (* remaining positive flow per arc *)
  div_rem : int array;   (* remaining divergence budget per vertex *)
  cursor : int array;    (* per-vertex scan position over out-arcs *)
  path_arc : int array;
  path_vtx : int array;
  path_pos : int array;  (* vertex -> position on the current path, or -1 *)
  mutable top : int;     (* arcs currently on the path *)
}

(* advance v's cursor to its next positive-flow out-arc, or return -1 *)
(* lint: hot *)
let next_arc w v =
  let arcs = w.net.Net.arcs in
  let row_end = w.net.Net.first.(v + 1) in
  let c = ref w.cursor.(v) in
  while !c < row_end && w.flow.(arcs.(!c)) = 0 do
    incr c
  done;
  w.cursor.(v) <- !c;
  if !c >= row_end then -1 else arcs.(!c)

(* the walk stepped back onto on-path vertex [t]: remove the cycle's
   bottleneck (including the closing arc [a]) and truncate the path *)
(* lint: hot *)
let cancel_cycle w t a =
  let start = w.path_pos.(t) in
  let bottleneck = ref w.flow.(a) in
  for i = start to w.top - 1 do
    if w.flow.(w.path_arc.(i)) < !bottleneck then
      bottleneck := w.flow.(w.path_arc.(i))
  done;
  let b = !bottleneck in
  w.flow.(a) <- w.flow.(a) - b;
  for i = start to w.top - 1 do
    w.flow.(w.path_arc.(i)) <- w.flow.(w.path_arc.(i)) - b
  done;
  for i = start + 1 to w.top do
    w.path_pos.(w.path_vtx.(i)) <- -1
  done;
  w.top <- start

(* walk one path from source [s]; returns the sink reached *)
(* lint: hot *)
let walk_path w s =
  w.top <- 0;
  w.path_vtx.(0) <- s;
  w.path_pos.(s) <- 0;
  let dst = ref (-1) in
  let cur = ref s in
  while !dst < 0 do
    let v = !cur in
    if v <> s && w.div_rem.(v) < 0 then dst := v
    else begin
      let a = next_arc w v in
      if a < 0 then
        invalid_arg
          "Flow.Path_decompose.decompose: stuck walk (not a routed flow)"
      else begin
        let h = w.net.Net.arc_head.(a) in
        if w.path_pos.(h) >= 0 then begin
          cancel_cycle w h a;
          cur := h
        end
        else begin
          w.path_arc.(w.top) <- a;
          w.top <- w.top + 1;
          w.path_vtx.(w.top) <- h;
          w.path_pos.(h) <- w.top;
          cur := h
        end
      end
    end
  done;
  !dst

let decompose net =
  let n = net.Net.n in
  let arcs = Array.length net.Net.arc_head in
  let w =
    {
      net;
      flow = Array.init arcs (Net.arc_flow net);
      div_rem = Array.init n (Net.divergence net);
      cursor = Array.copy net.Net.first;
      path_arc = Array.make (n + 1) 0;
      path_vtx = Array.make (n + 2) 0;
      path_pos = Array.make n (-1);
      top = 0;
    }
  in
  (* every path carries at least one unit, so the positive divergence
     bounds the path count; paths fill the arrays from the back, which
     puts sources in ascending order *)
  let bound = Array.fold_left (fun acc d -> acc + Int.max d 0) 0 w.div_rem in
  let vertices = Array.make bound [||] in
  let edges = Array.make bound [||] in
  let amounts = Array.make bound 0 in
  let next = ref bound in
  let total = ref 0 in
  let max_len = ref 0 in
  for s = n - 1 downto 0 do
    while w.div_rem.(s) > 0 do
      let t = walk_path w s in
      (* every path arc carries a positive flow, so a budget of one unit
         is already the bottleneck *)
      let amount = ref (Int.min w.div_rem.(s) (-w.div_rem.(t))) in
      if !amount > 1 then
        for i = 0 to w.top - 1 do
          if w.flow.(w.path_arc.(i)) < !amount then
            amount := w.flow.(w.path_arc.(i))
        done;
      let amt = !amount in
      (* a completed walk always carries at least one unit: the path's
         arcs each had positive flow and both endpoint budgets are open.
         Arc 2e or 2e+1 runs along edge e. *)
      let es = Array.make w.top 0 in
      for i = 0 to w.top - 1 do
        let a = w.path_arc.(i) in
        w.flow.(a) <- w.flow.(a) - amt;
        es.(i) <- a lsr 1
      done;
      w.div_rem.(s) <- w.div_rem.(s) - amt;
      w.div_rem.(t) <- w.div_rem.(t) + amt;
      total := !total + amt;
      if w.top > !max_len then max_len := w.top;
      decr next;
      vertices.(!next) <- Array.sub w.path_vtx 0 (w.top + 1);
      edges.(!next) <- es;
      amounts.(!next) <- amt;
      for i = 0 to w.top do
        w.path_pos.(w.path_vtx.(i)) <- -1
      done
    done
  done;
  let keep a = if !next = 0 then a else Array.sub a !next (bound - !next) in
  let vertices = keep vertices in
  Obs.Metric.count "flow.paths" (Array.length vertices);
  Obs.Metric.set_max "flow.max_path_len" !max_len;
  { vertices; edges = keep edges; amounts = keep amounts; total = !total;
    max_length = !max_len }
