open Sparse_graph

(* Classic array-based Edmonds algorithm: repeated BFS searches for an
   augmenting path from each free vertex, contracting blossoms on the fly
   (base.(v) tracks each vertex's blossom base). *)

exception Augmented

let find_path g mate p base root =
  let n = Graph.n g in
  let used = Array.make n false in
  Array.fill p 0 n (-1);
  for i = 0 to n - 1 do
    base.(i) <- i
  done;
  used.(root) <- true;
  let q = Queue.create () in
  Queue.add root q;
  let lca a b =
    let seen = Array.make n false in
    let a = ref a in
    let continue = ref true in
    while !continue do
      a := base.(!a);
      seen.(!a) <- true;
      if mate.(!a) = -1 then continue := false else a := p.(mate.(!a))
    done;
    let b = ref b in
    let res = ref (-1) in
    while !res < 0 do
      b := base.(!b);
      if seen.(!b) then res := !b else b := p.(mate.(!b))
    done;
    !res
  in
  let blossom = Array.make n false in
  let mark_path v b child =
    let v = ref v and child = ref child in
    while base.(!v) <> b do
      blossom.(base.(!v)) <- true;
      blossom.(base.(mate.(!v))) <- true;
      p.(!v) <- !child;
      child := mate.(!v);
      v := p.(mate.(!v))
    done
  in
  let augment_from last =
    let v = ref last in
    while !v <> -1 do
      let pv = p.(!v) in
      let ppv = mate.(pv) in
      mate.(!v) <- pv;
      mate.(pv) <- !v;
      v := ppv
    done;
    raise Augmented
  in
  try
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      Graph.iter_neighbors g v (fun t ->
          if base.(v) <> base.(t) && mate.(v) <> t then begin
            if t = root || (mate.(t) <> -1 && p.(mate.(t)) <> -1) then begin
              (* odd cycle: contract the blossom *)
              let curbase = lca v t in
              Array.fill blossom 0 n false;
              mark_path v curbase t;
              mark_path t curbase v;
              for i = 0 to n - 1 do
                if blossom.(base.(i)) then begin
                  base.(i) <- curbase;
                  if not used.(i) then begin
                    used.(i) <- true;
                    Queue.add i q
                  end
                end
              done
            end
            else if p.(t) = -1 then begin
              p.(t) <- v;
              if mate.(t) = -1 then augment_from t
              else begin
                used.(mate.(t)) <- true;
                Queue.add mate.(t) q
              end
            end
          end)
    done;
    false
  with Augmented -> true

let max_cardinality_matching g =
  let n = Graph.n g in
  let mate = Array.make n (-1) in
  let p = Array.make n (-1) in
  let base = Array.make n 0 in
  (* cheap greedy initialization speeds up the search phases *)
  Graph.iter_edges g (fun _ u v ->
      if mate.(u) = -1 && mate.(v) = -1 then begin
        mate.(u) <- v;
        mate.(v) <- u
      end);
  for v = 0 to n - 1 do
    if mate.(v) = -1 then ignore (find_path g mate p base v)
  done;
  mate

let size mate =
  Array.fold_left (fun acc m -> if m >= 0 then acc + 1 else acc) 0 mate / 2

(* lint: allow U001 test oracle: mate array is a symmetric matching *)
let is_valid_matching g mate =
  let ok = ref true in
  Array.iteri
    (fun v m ->
      if m >= 0 then begin
        if mate.(m) <> v then ok := false;
        if not (Graph.mem_edge g v m) then ok := false
      end)
    mate;
  !ok

(* lint: allow U001 test oracle: no augmenting path remains *)
let is_maximum g mate =
  is_valid_matching g mate
  &&
  let n = Graph.n g in
  let mate = Array.copy mate in
  let p = Array.make n (-1) in
  let base = Array.make n 0 in
  let augmentable = ref false in
  for v = 0 to n - 1 do
    if (not !augmentable) && mate.(v) = -1 then
      if find_path g mate p base v then augmentable := true
  done;
  not !augmentable
