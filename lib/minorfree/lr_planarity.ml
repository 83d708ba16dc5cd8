open Sparse_graph

(* Directed edges are (tail, head) pairs keyed as tail * n + head. The
   algorithm follows Brandes' presentation (and the NetworkX LRPlanarity
   reference); only the testing machinery is kept -- no embedding sides. *)

exception Nonplanar

type interval = {
  mutable low : int;   (* encoded edge, or -1 *)
  mutable high : int;
}

type cpair = {
  mutable li : interval;
  mutable ri : interval;
}

let is_planar g =
  let n = Graph.n g in
  let m = Graph.m g in
  if m = 0 || n < 5 then true
  else if m > (3 * n) - 6 then false
  else begin
    let encode u v = (u * n) + v in
    let head e = e mod n in
    let reversed e = encode (e mod n) (e / n) in
    let height = Array.make n (-1) in
    let parent_edge = Array.make n (-1) in
    (* per directed edge attributes *)
    let lowpt = Hashtbl.create (4 * m) in
    let lowpt2 = Hashtbl.create (4 * m) in
    let nesting = Hashtbl.create (4 * m) in
    let ref_ = Hashtbl.create (4 * m) in
    let lowpt_edge = Hashtbl.create (4 * m) in
    let oriented e = Hashtbl.mem lowpt e in
    let get tbl e = Hashtbl.find tbl e in
    let set tbl e x = Hashtbl.replace tbl e x in

    (* ---------------- phase 1: orientation ---------------- *)
    let rec dfs1 v =
      let e = parent_edge.(v) in
      Graph.iter_neighbors g v (fun w ->
          let vw = encode v w in
          if (not (oriented vw)) && not (oriented (reversed vw)) then begin
            set lowpt vw height.(v);
            set lowpt2 vw height.(v);
            if height.(w) < 0 then begin
              (* tree edge *)
              parent_edge.(w) <- vw;
              height.(w) <- height.(v) + 1;
              dfs1 w
            end
            else set lowpt vw height.(w);
            (* nesting depth *)
            let nd = 2 * get lowpt vw in
            let nd = if get lowpt2 vw < height.(v) then nd + 1 else nd in
            set nesting vw nd;
            (* propagate low points to the parent edge *)
            if e >= 0 then begin
              if get lowpt vw < get lowpt e then begin
                set lowpt2 e (min (get lowpt e) (get lowpt2 vw));
                set lowpt e (get lowpt vw)
              end
              else if get lowpt vw > get lowpt e then
                set lowpt2 e (min (get lowpt2 e) (get lowpt vw))
              else set lowpt2 e (min (get lowpt2 e) (get lowpt2 vw))
            end
          end)
    in
    let roots = ref [] in
    for v = 0 to n - 1 do
      if height.(v) < 0 then begin
        height.(v) <- 0;
        roots := v :: !roots;
        dfs1 v
      end
    done;

    (* outgoing oriented edges per vertex, by nesting depth *)
    let ordered = Array.make n [||] in
    for v = 0 to n - 1 do
      let out =
        Graph.fold_neighbors g v
          (fun acc w ->
            let vw = encode v w in
            if oriented vw then vw :: acc else acc)
          []
      in
      let arr = Array.of_list out in
      Array.sort (fun a b -> Int.compare (get nesting a) (get nesting b)) arr;
      ordered.(v) <- arr
    done;

    (* ---------------- phase 2: testing ---------------- *)
    let stack : cpair list ref = ref [] in
    (* stack_bottom.(edge) = physical top of stack when the edge started *)
    let stack_bottom = Hashtbl.create (4 * m) in
    let top () = match !stack with [] -> None | p :: _ -> Some p in
    let pop () =
      match !stack with
      | [] -> raise Nonplanar
      | p :: rest ->
          stack := rest;
          p
    in
    let push p = stack := p :: !stack in
    let empty_iv () = { low = -1; high = -1 } in
    let iv_empty i = i.low < 0 && i.high < 0 in
    let swap p =
      let t = p.li in
      p.li <- p.ri;
      p.ri <- t
    in
    let conflicting i b =
      (not (iv_empty i)) && i.high >= 0 && get lowpt i.high > get lowpt b
    in
    let lowest p =
      match (iv_empty p.li, iv_empty p.ri) with
      | true, true -> max_int
      | true, false -> get lowpt p.ri.low
      | false, true -> get lowpt p.li.low
      | false, false -> min (get lowpt p.li.low) (get lowpt p.ri.low)
    in
    let same_top expected =
      match (top (), expected) with
      | None, None -> true
      | Some a, Some b -> a == b
      | _ -> false
    in
    let add_constraints ei e =
      let p = { li = empty_iv (); ri = empty_iv () } in
      (* merge return edges of ei into p.ri *)
      let continue = ref true in
      while !continue do
        let q = pop () in
        if not (iv_empty q.li) then swap q;
        if not (iv_empty q.li) then raise Nonplanar;
        if q.ri.low >= 0 && get lowpt q.ri.low > get lowpt e then begin
          (* merge intervals *)
          if iv_empty p.ri then p.ri.high <- q.ri.high
          else Hashtbl.replace ref_ p.ri.low q.ri.high;
          p.ri.low <- q.ri.low
        end
        else if q.ri.low >= 0 then
          (* align *)
          Hashtbl.replace ref_ q.ri.low (get lowpt_edge e);
        if same_top (Hashtbl.find stack_bottom ei) then continue := false
      done;
      (* merge conflicting return edges of earlier siblings into p.li *)
      let keep_going () =
        match top () with
        | None -> false
        | Some q -> conflicting q.li ei || conflicting q.ri ei
      in
      while keep_going () do
        let q = pop () in
        if conflicting q.ri ei then swap q;
        if conflicting q.ri ei then raise Nonplanar;
        (* merge interval below lowpt ei into p.ri *)
        if p.ri.low >= 0 then Hashtbl.replace ref_ p.ri.low q.ri.high;
        if q.ri.low >= 0 then p.ri.low <- q.ri.low;
        if iv_empty p.li then p.li.high <- q.li.high
        else Hashtbl.replace ref_ p.li.low q.li.high;
        p.li.low <- q.li.low
      done;
      if not (iv_empty p.li && iv_empty p.ri) then push p
    in
    let follow_ref e =
      match Hashtbl.find_opt ref_ e with Some x -> x | None -> -1
    in
    let trim_back_edges u =
      (* drop entire conflict pairs whose lowest return is at u *)
      let continue = ref true in
      while !continue do
        match top () with
        | Some p when lowest p = height.(u) -> ignore (pop ())
        | _ -> continue := false
      done;
      (* trim one more conflict pair *)
      match top () with
      | None -> ()
      | Some _ ->
          let p = pop () in
          while p.li.high >= 0 && head p.li.high = u do
            p.li.high <- follow_ref p.li.high
          done;
          if p.li.high < 0 && p.li.low >= 0 then begin
            Hashtbl.replace ref_ p.li.low p.ri.low;
            p.li.low <- -1
          end;
          while p.ri.high >= 0 && head p.ri.high = u do
            p.ri.high <- follow_ref p.ri.high
          done;
          if p.ri.high < 0 && p.ri.low >= 0 then begin
            Hashtbl.replace ref_ p.ri.low p.li.low;
            p.ri.low <- -1
          end;
          push p
    in
    let rec dfs2 v =
      let e = parent_edge.(v) in
      let outgoing = ordered.(v) in
      Array.iteri
        (fun idx ei ->
          let w = head ei in
          Hashtbl.replace stack_bottom ei (top ());
          if ei = parent_edge.(w) then dfs2 w
          else begin
            (* back edge *)
            set lowpt_edge ei ei;
            push { li = empty_iv (); ri = { low = ei; high = ei } }
          end;
          if get lowpt ei < height.(v) then begin
            (* ei has a return edge *)
            if idx = 0 then set lowpt_edge e (get lowpt_edge ei)
            else add_constraints ei e
          end)
        outgoing;
      if e >= 0 then trim_back_edges (e / n)
    in
    match List.iter (fun r -> dfs2 r) !roots with
    | () -> true
    | exception Nonplanar -> false
  end
