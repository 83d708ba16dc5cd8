open Sparse_graph

(* The reusable witness hierarchy behind expander routing (the shape of a
   hierarchical LeafWitness / InternalWitness route). Preprocessing turns
   one expander decomposition into:

   - a *leaf witness* per cluster: a BFS tree rooted at the cluster's
     leader over the witness graph = intra-cluster edges plus the
     cut-matching game's embedded matchings as shortcut edges (each
     shortcut expands to its retained real-edge path when routed). When
     the decomposition retained no matchings (spectral engine, exact or
     trivial acceptances) and the cluster is large enough, a fresh
     cut-matching game is played here instead — the reuse-vs-rebuild
     axis route-bench measures. Rebuild games run under the adaptive
     cut-matching budgets (plateau early-exit, size-scaled vectors).

   - an *internal witness* per recursion-tree node: the inter-cluster
     edges whose endpoints diverge at that node, bucketed per ordered
     child pair as portal edges, plus the node's child-connectivity
     graph for multi-hop child sequences.

   Serving routes a demand (src, dst) top-down: descend the recursion
   tree along the common prefix of the two clusters' addresses, walk a
   child sequence at the divergence node crossing one portal edge per
   hop, and solve intra-cluster legs in the leaf witness by an LCA walk
   of the BFS tree, expanding shortcuts to their embedded real paths.

   Portal (and, under [Least_loaded], destination-entry) choices are
   per-*router* state: a [router] owns every cursor, scratch buffer and
   counter one serving stream mutates, so a pool can run one router per
   task over a shared hierarchy and merge the cursor advances back
   deterministically. Everything is deterministic: adjacency orders are
   fixed, cursors advance in demand order, rebuild games are seeded via
   Pool.derive_seed. *)

(* ---- growable int vector (the planner's path accumulator) ---- *)

type vec = { mutable buf : int array; mutable len : int }

let vec_create () = { buf = Array.make 64 0; len = 0 }

let vec_push v x =
  if v.len = Array.length v.buf then begin
    let b = Array.make (2 * v.len) 0 in
    Array.blit v.buf 0 b 0 v.len;
    v.buf <- b
  end;
  v.buf.(v.len) <- x;
  v.len <- v.len + 1

let vec_to_array v = Array.sub v.buf 0 v.len

(* ---- selection policy ---- *)

type policy = Round_robin | Least_loaded

(* ---- leaf witnesses ---- *)

(* adjacency entry in one cluster's witness graph: neighbor member index,
   the embedded real-edge path ([||] = a direct intra edge), whether that
   path is oriented self -> neighbor, the edge ids along the expansion,
   and a representative (minimum) edge id used for deterministic ties *)
type ledge = {
  nbr : int;
  lpath : int array;
  lfwd : bool;
  eids : int array;
  rep : int;
}

type leaf = {
  members : int array;  (* ascending vertex ids *)
  leader : int;         (* vertex id of the BFS root *)
  parent : int array;   (* member idx -> member idx, -1 for root/unreached *)
  depth : int array;    (* -1 = unreached in the witness graph *)
  up_path : int array array;  (* real path to parent; [||] = direct edge *)
  up_fwd : bool array;        (* is up_path oriented self -> parent? *)
  up_eids : int array array;  (* edge ids along the up bundle *)
  up_rep : int array;         (* representative edge id of the up bundle *)
  wadj : ledge array array;   (* full witness adjacency per member *)
  shortcuts : int;      (* matching shortcut edges in the witness graph *)
  rebuilt : bool;       (* a fresh cut-matching game was played here *)
}

(* ---- internal witnesses (recursion-tree nodes) ---- *)

type bucket = {
  ports : (int * int) array;  (* oriented inter-cluster edges *)
  port_eids : int array;      (* edge id per port *)
  bk_id : int;                (* dense id across the whole hierarchy *)
}

type node = {
  nd_depth : int;
  ranks : int array;        (* sorted child ranks (recursion child ids) *)
  children : node array;    (* aligned with [ranks] *)
  cluster : int;            (* leaf: the cluster label; internal: -1 *)
  tmp_buckets : (int, (int * int) list ref) Hashtbl.t;
      (* build-time accumulator, emptied by [fill_buckets] *)
  mutable nd_id : int;      (* dense id across internal nodes *)
  mutable bkeys : int array;      (* sorted (i * nc + j) bucket keys *)
  mutable bvals : bucket array;   (* aligned with [bkeys] *)
  mutable child_adj : int array array;  (* dense idx -> adjacent dense idxs *)
}

type t = {
  g : Graph.t;
  labels : int array;
  paths : int array array;  (* cluster label -> recursion-tree address *)
  pos_of : int array;       (* vertex -> index among its cluster's members *)
  leaves : leaf array;
  root : node;
  bucket_of : bucket array; (* bk_id -> bucket *)
  wdeg : int array;         (* vertex -> witness degree (>= 1) *)
  seq_stride : int;         (* child-sequence memo key stride *)
}

(* ---- per-stream serving state ---- *)

type router = {
  cursors : int array;  (* bk_id -> portal rotation position *)
  cadv : int array;     (* bk_id -> advances since the last sync *)
  ecur : int array;     (* vertex -> destination-entry probe position *)
  eadv : int array;     (* vertex -> advances since the last sync *)
  chain : vec;          (* scratch: LCA descent on the y side *)
  fb_pred : int array;  (* scratch: global-BFS fallback predecessors *)
  fb_queue : int array;
  seq_memo : (int, int array) Hashtbl.t;  (* memoized child sequences *)
  mutable fallbacks : int;  (* legs that left the witness structures *)
}

let make_router t =
  let n = Graph.n t.g in
  let nb = Array.length t.bucket_of in
  {
    cursors = Array.make (max 1 nb) 0;
    cadv = Array.make (max 1 nb) 0;
    ecur = Array.make n 0;
    eadv = Array.make n 0;
    chain = vec_create ();
    fb_pred = Array.make n (-1);
    fb_queue = Array.make n 0;
    seq_memo = Hashtbl.create 16;
    fallbacks = 0;
  }

let reset_router t rt =
  let n = Graph.n t.g in
  let nb = Array.length t.bucket_of in
  Array.fill rt.cursors 0 nb 0;
  Array.fill rt.cadv 0 nb 0;
  Array.fill rt.ecur 0 n 0;
  Array.fill rt.eadv 0 n 0;
  rt.fallbacks <- 0

(* adopt [src]'s cursor positions and start counting advances from zero
   (the memoized child sequences are pure and stay) *)
let sync_router t ~src ~dst =
  let n = Graph.n t.g in
  let nb = Array.length t.bucket_of in
  Array.blit src.cursors 0 dst.cursors 0 nb;
  Array.fill dst.cadv 0 nb 0;
  Array.blit src.ecur 0 dst.ecur 0 n;
  Array.fill dst.eadv 0 n 0;
  dst.fallbacks <- 0

(* fold [src]'s advances into [dst]'s positions; merging every task of an
   epoch in task order is jobs-invariant because the advance counts only
   depend on the demands the task routed *)
let merge_router t ~src ~dst =
  let nb = Array.length t.bucket_of in
  for b = 0 to nb - 1 do
    let a = src.cadv.(b) in
    if a > 0 then begin
      let len = Array.length t.bucket_of.(b).ports in
      dst.cursors.(b) <- (dst.cursors.(b) + a) mod len
    end
  done;
  let n = Graph.n t.g in
  for v = 0 to n - 1 do
    let a = src.eadv.(v) in
    if a > 0 then dst.ecur.(v) <- (dst.ecur.(v) + a) mod t.wdeg.(v)
  done;
  dst.fallbacks <- dst.fallbacks + src.fallbacks

let router_fallbacks rt = rt.fallbacks

let rebuild_min = 9  (* clusters below this size keep the plain BFS tree *)

(* edge ids along a real-edge path, plus the minimum as representative *)
let path_eids g p =
  let len = Array.length p in
  let eids = Array.make (len - 1) 0 in
  let rep = ref max_int in
  for q = 0 to len - 2 do
    let e = Graph.find_edge g p.(q) p.(q + 1) in
    eids.(q) <- e;
    if e < !rep then rep := e
  done;
  (eids, !rep)

let build_leaf g (view : Distr.Cluster_view.t) ~tau ~reuse ~seed ~label
    (dw : Spectral.Expander_decomposition.cluster_witness) ~members ~pos_of =
  let sz = Array.length members in
  let adj = Array.make sz [] in
  (* intra edges first, via the view's cached CSR rows *)
  for i = 0 to sz - 1 do
    Array.iter
      (fun w ->
        let e = Graph.find_edge g members.(i) w in
        adj.(i) <-
          { nbr = pos_of.(w); lpath = [||]; lfwd = true;
            eids = [| e |]; rep = e }
          :: adj.(i))
      view.Distr.Cluster_view.intra.(members.(i))
  done;
  (* matching shortcuts: reuse the retained witness, or rebuild by
     playing a fresh game (adaptive budgets) on the induced cluster *)
  let matchings, rebuilt =
    if reuse && dw.Spectral.Expander_decomposition.w_matchings <> [] then
      (dw.Spectral.Expander_decomposition.w_matchings, false)
    else if sz >= rebuild_min then begin
      let sub, mapping = Graph_ops.induced_subgraph g (Array.to_list members) in
      if Graph.m sub = 0 then ([], false)
      else begin
        let game_tau = if tau > 0. then tau else 0.1 in
        let verdict, _ =
          Flow.Cut_matching.run ~params:Flow.Cut_matching.adaptive sub
            ~tau:game_tau
            ~seed:(Parallel.Pool.derive_seed seed (label + 1))
        in
        match verdict with
        | Flow.Cut_matching.Expander w ->
            (Flow.Cut_matching.original_matchings mapping w, true)
        | Flow.Cut_matching.Cut _ -> ([], true)
      end
    end
    else ([], false)
  in
  let shortcuts = ref 0 in
  List.iter
    (fun (pairs, embeds) ->
      Array.iteri
        (fun idx (a, b) ->
          let p = embeds.(idx) in
          if Array.length p >= 2 then begin
            incr shortcuts;
            let ia = pos_of.(a) and ib = pos_of.(b) in
            let eids, rep = path_eids g p in
            adj.(ia) <-
              { nbr = ib; lpath = p; lfwd = true; eids; rep } :: adj.(ia);
            adj.(ib) <-
              { nbr = ia; lpath = p; lfwd = false; eids; rep } :: adj.(ib)
          end)
        pairs)
    matchings;
  (* entries were prepended: reverse so BFS scans intra edges (ascending)
     first, then shortcuts in matching order *)
  let wadj = Array.map (fun l -> Array.of_list (List.rev l)) adj in
  (* leader = max intra-degree member, smallest id among ties. The
     election (and Pipeline.central_leaders) breaks ties toward the larger
     id instead; rooting the witness tree there was measured on the
     bench_e2e grid workloads (seed 1) at +10.7% congestion_max uniform
     and +10.9% hot-spot, past the benchmark's 5% bound, with the planar
     workloads unchanged, so the tree keeps its own rule. *)
  let leader = ref members.(0) in
  let best = ref (-1) in
  Array.iter
    (fun v ->
      let d = Array.length view.Distr.Cluster_view.intra.(v) in
      if d > !best then begin
        best := d;
        leader := v
      end)
    members;
  let leader = !leader in
  (* BFS over the witness graph from the leader *)
  let parent = Array.make sz (-1) in
  let depth = Array.make sz (-1) in
  let up_path = Array.make sz [||] in
  let up_fwd = Array.make sz true in
  let up_eids = Array.make sz [||] in
  let up_rep = Array.make sz max_int in
  let queue = Array.make sz 0 in
  let head = ref 0 and tail = ref 0 in
  let rootm = pos_of.(leader) in
  depth.(rootm) <- 0;
  queue.(!tail) <- rootm;
  incr tail;
  while !head < !tail do
    let i = queue.(!head) in
    incr head;
    Array.iter
      (fun e ->
        if depth.(e.nbr) < 0 then begin
          depth.(e.nbr) <- depth.(i) + 1;
          parent.(e.nbr) <- i;
          up_path.(e.nbr) <- e.lpath;
          (* the entry path is oriented i -> nbr iff [e.lfwd]; the
             child's up path runs nbr -> i, so the flag flips *)
          up_fwd.(e.nbr) <- not e.lfwd;
          up_eids.(e.nbr) <- e.eids;
          up_rep.(e.nbr) <- e.rep;
          queue.(!tail) <- e.nbr;
          incr tail
        end)
      wadj.(i)
  done;
  { members; leader; parent; depth; up_path; up_fwd; up_eids; up_rep;
    wadj; shortcuts = !shortcuts; rebuilt }

(* ---- recursion tree ---- *)

let rec build_node paths ~depth (labels : int list) =
  match labels with
  | [ l ] when Array.length paths.(l) = depth ->
      {
        nd_depth = depth;
        ranks = [||];
        children = [||];
        cluster = l;
        tmp_buckets = Hashtbl.create 1;
        nd_id = -1;
        bkeys = [||];
        bvals = [||];
        child_adj = [||];
      }
  | _ ->
      (* group by the rank at [depth]; labels arrive in lex path order,
         so each group is a consecutive run *)
      let groups = ref [] in
      List.iter
        (fun l ->
          let r = paths.(l).(depth) in
          match !groups with
          | (r', ls) :: rest when r' = r -> groups := (r', l :: ls) :: rest
          | _ -> groups := (r, [ l ]) :: !groups)
        labels;
      let groups = List.rev_map (fun (r, ls) -> (r, List.rev ls)) !groups in
      {
        nd_depth = depth;
        ranks = Array.of_list (List.map fst groups);
        children =
          Array.of_list
            (List.map
               (fun (_, ls) -> build_node paths ~depth:(depth + 1) ls)
               groups);
        cluster = -1;
        tmp_buckets = Hashtbl.create 8;
        nd_id = -1;
        bkeys = [||];
        bvals = [||];
        child_adj = [||];
      }

(* dense index of child rank [rank] in [node.ranks], by binary search *)
(* lint: hot *)
let dense_idx node rank =
  let lo = ref 0 and hi = ref (Array.length node.ranks - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if node.ranks.(mid) < rank then lo := mid + 1 else hi := mid
  done;
  !lo

(* the bucket holding portals from dense child [i] to [j], if any *)
(* lint: hot *)
let find_bucket nd key =
  let keys = nd.bkeys in
  let lo = ref 0 and hi = ref (Array.length keys - 1) in
  if !hi < 0 then -1
  else begin
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if keys.(mid) < key then lo := mid + 1 else hi := mid
    done;
    if keys.(!lo) = key then !lo else -1
  end

(* distribute the inter-cluster edges into portal buckets at each
   endpoint pair's divergence node, then freeze bucket port order (edge
   enumeration order), assign dense bucket/node ids, and derive each
   node's child adjacency. Returns the bucket table and the memo stride. *)
let fill_buckets root paths labels g inter_edges =
  List.iter
    (fun e ->
      let u, v = Graph.endpoints g e in
      let pu = paths.(labels.(u)) and pv = paths.(labels.(v)) in
      let nd = ref root in
      while pu.((!nd).nd_depth) = pv.((!nd).nd_depth) do
        nd := (!nd).children.(dense_idx !nd pu.((!nd).nd_depth))
      done;
      let nd = !nd in
      let nc = Array.length nd.ranks in
      let i = dense_idx nd pu.(nd.nd_depth)
      and j = dense_idx nd pv.(nd.nd_depth) in
      let add key port =
        match Hashtbl.find_opt nd.tmp_buckets key with
        | Some r -> r := port :: !r
        | None -> Hashtbl.add nd.tmp_buckets key (ref [ port ])
      in
      add ((i * nc) + j) (u, v);
      add ((j * nc) + i) (v, u))
    inter_edges;
  let acc = ref [] in
  let nbk = ref 0 and nnd = ref 0 and stride = ref 1 in
  let rec finalize nd =
    let nc = Array.length nd.ranks in
    if nc > 0 then begin
      nd.nd_id <- !nnd;
      incr nnd;
      if nc * nc > !stride then stride := nc * nc;
      (* key order out of the table is arbitrary: sort before use *)
      let keys =
        List.sort compare
          (Hashtbl.fold (fun k _ acc -> k :: acc) nd.tmp_buckets [])
      in
      let adj = Array.make nc [] in
      nd.bkeys <- Array.of_list keys;
      nd.bvals <-
        Array.map
          (fun key ->
            let ports =
              Array.of_list (List.rev !(Hashtbl.find nd.tmp_buckets key))
            in
            let port_eids =
              Array.map (fun (u, v) -> Graph.find_edge g u v) ports
            in
            let b = { ports; port_eids; bk_id = !nbk } in
            incr nbk;
            acc := b :: !acc;
            adj.(key / nc) <- (key mod nc) :: adj.(key / nc);
            b)
          nd.bkeys;
      Hashtbl.reset nd.tmp_buckets;
      (* keys ascending => each row was built ascending, then reversed *)
      nd.child_adj <- Array.map (fun l -> Array.of_list (List.rev l)) adj;
      Array.iter finalize nd.children
    end
  in
  finalize root;
  (Array.of_list (List.rev !acc), !stride)

(* ---- construction ---- *)

type info = {
  clusters : int;
  shortcuts : int;      (* matching shortcut edges across all leaves *)
  rebuilt_leaves : int; (* leaves that played a fresh game *)
  reused_leaves : int;  (* leaves routed from retained matchings *)
  max_leaf_depth : int; (* deepest witness-tree member over all leaves *)
  tree_height : int;    (* recursion-tree height *)
}

let build ?(reuse = true) ?(seed = 0) ?(pool = Parallel.Pool.sequential) g
    (d : Spectral.Expander_decomposition.t) =
  Obs.Span.with_ "route.preprocess" @@ fun () ->
  let n = Graph.n g in
  if n = 0 || d.Spectral.Expander_decomposition.k = 0 then
    invalid_arg "Route.Hierarchy.build: empty graph or decomposition";
  let labels = d.Spectral.Expander_decomposition.labels in
  if Array.length labels <> n then
    invalid_arg "Route.Hierarchy.build: label array length mismatch";
  let k = d.Spectral.Expander_decomposition.k in
  let view = Distr.Cluster_view.of_labels g labels in
  (* members per cluster, ascending; pos_of aligned *)
  let counts = Array.make k 0 in
  Array.iter (fun l -> counts.(l) <- counts.(l) + 1) labels;
  let members = Array.init k (fun l -> Array.make (max 1 counts.(l)) 0) in
  let pos_of = Array.make n 0 in
  let fill = Array.make k 0 in
  for v = 0 to n - 1 do
    let l = labels.(v) in
    members.(l).(fill.(l)) <- v;
    pos_of.(v) <- fill.(l);
    fill.(l) <- fill.(l) + 1
  done;
  let paths =
    Array.map
      (fun w ->
        Array.of_list w.Spectral.Expander_decomposition.w_path)
      d.Spectral.Expander_decomposition.witnesses
  in
  if Array.length paths <> k then
    invalid_arg "Route.Hierarchy.build: witnesses do not match clusters";
  (* leaves are independent of each other: fan the builds (including any
     rebuild games, each seeded by its own label) out over the pool *)
  let leaves =
    Parallel.Pool.mapi pool
      (fun l () ->
        build_leaf g view ~tau:d.Spectral.Expander_decomposition.tau ~reuse
          ~seed ~label:l
          d.Spectral.Expander_decomposition.witnesses.(l)
          ~members:members.(l) ~pos_of)
      (Array.make k ())
  in
  let root = build_node paths ~depth:0 (List.init k Fun.id) in
  let bucket_of, seq_stride =
    fill_buckets root paths labels g
      d.Spectral.Expander_decomposition.inter_edges
  in
  let wdeg = Array.make n 1 in
  Array.iter
    (fun (lf : leaf) ->
      Array.iteri
        (fun i row -> wdeg.(lf.members.(i)) <- max 1 (Array.length row))
        lf.wadj)
    leaves;
  if Obs.enabled () then begin
    Obs.Metric.count "route.clusters" k;
    Array.iter
      (fun (lf : leaf) ->
        Obs.Metric.count "route.shortcuts" lf.shortcuts;
        if lf.rebuilt then Obs.Metric.incr "route.rebuilt_leaves")
      leaves;
    Obs.Metric.count "route.ports"
      (2 * List.length d.Spectral.Expander_decomposition.inter_edges)
  end;
  { g; labels; paths; pos_of; leaves; root; bucket_of; wdeg; seq_stride }

let info t =
  let shortcuts = ref 0 and rebuilt = ref 0 and reused = ref 0 in
  let max_depth = ref 0 in
  Array.iter
    (fun (lf : leaf) ->
      shortcuts := !shortcuts + lf.shortcuts;
      if lf.rebuilt then incr rebuilt
      else if lf.shortcuts > 0 then incr reused;
      Array.iter (fun d -> if d > !max_depth then max_depth := d) lf.depth)
    t.leaves;
  let rec height nd =
    if Array.length nd.children = 0 then 0
    else 1 + Array.fold_left (fun acc c -> max acc (height c)) 0 nd.children
  in
  {
    clusters = Array.length t.leaves;
    shortcuts = !shortcuts;
    rebuilt_leaves = !rebuilt;
    reused_leaves = !reused;
    max_leaf_depth = !max_depth;
    tree_height = height t.root;
  }

(* ---- serving ---- *)

(* live load of edge [e]; serving without a congestion array sees zero
   everywhere, which degrades least-loaded to its edge-id tie-break *)
(* lint: hot *)
let load cong e = if e < Array.length cong then cong.(e) else 0

(* heaviest edge along a witness bundle (direct edge or expansion path) *)
(* lint: hot *)
let bundle_cost cong eids =
  let c = ref 0 in
  for i = 0 to Array.length eids - 1 do
    let l = load cong eids.(i) in
    if l > !c then c := l
  done;
  !c

(* append member [c]'s hop up to its parent (out currently ends at c) *)
let push_up lf out c =
  let p = lf.up_path.(c) in
  let len = Array.length p in
  if len = 0 then vec_push out lf.members.(lf.parent.(c))
  else if lf.up_fwd.(c) then
    for i = 1 to len - 1 do
      vec_push out p.(i)
    done
  else
    for i = len - 2 downto 0 do
      vec_push out p.(i)
    done

(* append the hop down from [c]'s parent to [c] (out ends at the parent) *)
let push_down lf out c =
  let p = lf.up_path.(c) in
  let len = Array.length p in
  if len = 0 then vec_push out lf.members.(c)
  else if lf.up_fwd.(c) then
    for i = len - 2 downto 0 do
      vec_push out p.(i)
    done
  else
    for i = 1 to len - 1 do
      vec_push out p.(i)
    done

(* append the traversal of witness entry [e] (stored on member [self]'s
   row, so oriented self -> nbr iff [e.lfwd]) in the nbr -> self
   direction; out currently ends at nbr *)
let push_entry_back lf out self e =
  let p = e.lpath in
  let len = Array.length p in
  if len = 0 then vec_push out lf.members.(self)
  else if e.lfwd then
    for i = len - 2 downto 0 do
      vec_push out p.(i)
    done
  else
    for i = 1 to len - 1 do
      vec_push out p.(i)
    done

(* last-resort leg: BFS on the whole graph. Reached when the witness
   structures cannot connect the endpoints (disconnected input, or a
   baseline decomposition whose clusters are not internally connected);
   metered so benches can assert it stays cold. *)
let fallback t rt out x y =
  rt.fallbacks <- rt.fallbacks + 1;
  Obs.Metric.incr "route.fallbacks";
  let n = Graph.n t.g in
  Array.fill rt.fb_pred 0 n (-1);
  rt.fb_pred.(x) <- x;
  let head = ref 0 and tail = ref 0 in
  rt.fb_queue.(!tail) <- x;
  incr tail;
  while !head < !tail && rt.fb_pred.(y) < 0 do
    let v = rt.fb_queue.(!head) in
    incr head;
    Graph.iter_neighbors t.g v (fun w ->
        if rt.fb_pred.(w) < 0 then begin
          rt.fb_pred.(w) <- v;
          rt.fb_queue.(!tail) <- w;
          incr tail
        end)
  done;
  if rt.fb_pred.(y) < 0 then false
  else begin
    let chain = rt.chain in
    chain.len <- 0;
    let c = ref y in
    while !c <> x do
      vec_push chain !c;
      c := rt.fb_pred.(!c)
    done;
    for i = chain.len - 1 downto 0 do
      vec_push out chain.buf.(i)
    done;
    true
  end

(* walk the witness BFS tree from member [px] to member [py] (LCA walk);
   both must be reached. out currently ends at members.(px) *)
let tree_walk rt lf out px py =
  let px = ref px and py = ref py in
  let chain = rt.chain in
  chain.len <- 0;
  while lf.depth.(!px) > lf.depth.(!py) do
    push_up lf out !px;
    px := lf.parent.(!px)
  done;
  while lf.depth.(!py) > lf.depth.(!px) do
    vec_push chain !py;
    py := lf.parent.(!py)
  done;
  while !px <> !py do
    push_up lf out !px;
    px := lf.parent.(!px);
    vec_push chain !py;
    py := lf.parent.(!py)
  done;
  for i = chain.len - 1 downto 0 do
    push_down lf out chain.buf.(i)
  done

(* is member [anc] an ancestor of member [c] (inclusive)? O(depth) *)
let ancestor_of lf anc c =
  let d = lf.depth.(c) - lf.depth.(anc) in
  if d < 0 then false
  else begin
    let cur = ref c in
    for _ = 1 to d do
      cur := lf.parent.(!cur)
    done;
    !cur = anc
  end

(* Least-loaded destination entry: when the tree walk would descend into
   [py] over its (unique) up bundle, probe one rotating alternative
   witness edge (z, y) with depth(z) <= depth(y) — shallower entries keep
   the detour walk x -> z away from y — and divert when its heaviest edge
   beats the natural bundle's (ties to the smaller representative edge
   id). Returns [true] when it emitted the whole leg. *)
let try_divert rt ~cong lf out px py =
  let wadj = lf.wadj.(py) in
  let deg = Array.length wadj in
  let y = lf.members.(py) in
  let rn = lf.up_rep.(py) in
  let cn = bundle_cost cong lf.up_eids.(py) in
  if cn = 0 then false  (* the natural entry is cold: nothing to beat *)
  else begin
    let cur = rt.ecur.(y) in
    rt.ecur.(y) <- (if cur + 1 >= deg then 0 else cur + 1);
    rt.eadv.(y) <- rt.eadv.(y) + 1;
    let cand = ref (-1) in
    let i = ref 0 in
    while !cand < 0 && !i < deg do
      let idx =
        let s = cur + !i in
        if s >= deg then s - deg else s
      in
      let e = wadj.(idx) in
      if
        lf.depth.(e.nbr) >= 0
        && lf.depth.(e.nbr) <= lf.depth.(py)
        && e.nbr <> py && e.rep <> rn
      then cand := idx;
      incr i
    done;
    if !cand < 0 then false
    else begin
      let e = wadj.(!cand) in
      let ca = bundle_cost cong e.eids in
      if ca < cn || (ca = cn && e.rep < rn) then begin
        tree_walk rt lf out px e.nbr;
        push_entry_back lf out py e;
        true
      end
      else false
    end
  end

(* route x -> y inside leaf [lf] *)
let leaf_route t rt ~ll ~cong lf out x y =
  if x = y then true
  else begin
    let px = t.pos_of.(x) and py = t.pos_of.(y) in
    if lf.depth.(px) < 0 || lf.depth.(py) < 0 then fallback t rt out x y
    else begin
      (* diversion applies only when y is not an ancestor of x: then the
         walk's last hop is the descent over y's up bundle, and a detour
         through a not-deeper witness neighbor of y cannot pass through
         y itself *)
      let done_ =
        ll
        && Array.length lf.wadj.(py) > 1
        && lf.depth.(py) > 0
        && (not (ancestor_of lf py px))
        && try_divert rt ~cong lf out px py
      in
      if not done_ then tree_walk rt lf out px py;
      true
    end
  end

(* memoized BFS over a node's child-connectivity graph *)
let child_sequence t rt nd i j =
  let nc = Array.length nd.ranks in
  let key = (nd.nd_id * t.seq_stride) + (i * nc) + j in
  match Hashtbl.find_opt rt.seq_memo key with
  | Some s -> s
  | None ->
      let pred = Array.make nc (-1) in
      pred.(i) <- i;
      let queue = Array.make nc 0 in
      let head = ref 0 and tail = ref 0 in
      queue.(!tail) <- i;
      incr tail;
      while !head < !tail && pred.(j) < 0 do
        let a = queue.(!head) in
        incr head;
        if Array.length nd.child_adj > 0 then
          Array.iter
            (fun b ->
              if pred.(b) < 0 then begin
                pred.(b) <- a;
                queue.(!tail) <- b;
                incr tail
              end)
            nd.child_adj.(a)
      done;
      let s =
        if pred.(j) < 0 then [||]
        else begin
          let rev = ref [] in
          let c = ref j in
          while !c <> i do
            rev := !c :: !rev;
            c := pred.(!c)
          done;
          Array.of_list (i :: !rev)
        end
      in
      Hashtbl.add rt.seq_memo key s;
      s

(* pick a portal in [bk]: round-robin takes the cursor position;
   least-loaded compares it against a second probe half a rotation ahead
   (power-of-two-choices) on live edge load, ties to the smaller edge
   id. The cursor always advances by one, so the probe pair rotates. *)
(* lint: hot *)
let pick_port rt ~ll ~cong bk =
  let len = Array.length bk.ports in
  let cur = rt.cursors.(bk.bk_id) in
  rt.cursors.(bk.bk_id) <- (if cur + 1 >= len then 0 else cur + 1);
  rt.cadv.(bk.bk_id) <- rt.cadv.(bk.bk_id) + 1;
  if (not ll) || len < 2 then cur
  else begin
    let alt =
      let a = cur + 1 + (len / 2) in
      if a >= len then a - len else a
    in
    let alt = if alt = cur then (if cur + 1 >= len then 0 else cur + 1) else alt in
    let ea = bk.port_eids.(cur) and eb = bk.port_eids.(alt) in
    let ca = load cong ea and cb = load cong eb in
    if cb < ca || (cb = ca && eb < ea) then alt else cur
  end

let rec route_under t rt ~ll ~cong nd out x y =
  if x = y then true
  else if nd.cluster >= 0 then
    leaf_route t rt ~ll ~cong t.leaves.(nd.cluster) out x y
  else begin
    let rx = t.paths.(t.labels.(x)).(nd.nd_depth)
    and ry = t.paths.(t.labels.(y)).(nd.nd_depth) in
    if rx = ry then
      route_under t rt ~ll ~cong nd.children.(dense_idx nd rx) out x y
    else
      route_across t rt ~ll ~cong nd out (dense_idx nd rx) (dense_idx nd ry)
        x y
  end

and route_across t rt ~ll ~cong nd out i j x y =
  let seq = child_sequence t rt nd i j in
  if Array.length seq = 0 then fallback t rt out x y
  else begin
    let nc = Array.length nd.ranks in
    let ok = ref true in
    let cur = ref x in
    let s = ref 0 in
    while !ok && !s < Array.length seq - 1 do
      let a = seq.(!s) and b = seq.(!s + 1) in
      (match find_bucket nd ((a * nc) + b) with
      | -1 -> ok := false
      | bi ->
          let bk = nd.bvals.(bi) in
          let u, v = bk.ports.(pick_port rt ~ll ~cong bk) in
          ok := route_under t rt ~ll ~cong nd.children.(a) out !cur u;
          if !ok then begin
            vec_push out v;
            cur := v
          end);
      incr s
    done;
    if !ok then route_under t rt ~ll ~cong nd.children.(j) out !cur y
    else fallback t rt out !cur y
  end

(* plan one demand into [out] (cleared first). Returns [false] iff the
   endpoints are unreachable even by the global fallback; on success the
   vec holds the full vertex path, [src] first, [dst] last, consecutive
   entries real edges. *)
let route ?(policy = Round_robin) ?(cong = [||]) t rt out src dst =
  let n = Graph.n t.g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Route.Hierarchy.route: vertex out of range";
  out.len <- 0;
  vec_push out src;
  let ll = policy = Least_loaded in
  route_under t rt ~ll ~cong t.root out src dst
