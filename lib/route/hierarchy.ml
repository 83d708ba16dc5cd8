open Sparse_graph

(* The reusable witness hierarchy behind expander routing (the shape of a
   hierarchical LeafWitness / InternalWitness route). Preprocessing turns
   one expander decomposition into:

   - a *leaf witness* per cluster: the witness graph = intra-cluster
     edges plus the cut-matching game's embedded matchings as shortcut
     edges (each expands to its retained real-edge path when routed),
     and one or more BFS trees over the intra edges: the first rooted at
     the cluster's leader, the others at farthest points of deep
     clusters. Shortcuts serve only as destination entries. The
     matchings are the decomposition's own witness (Theorem 2.1 yields
     the clusters and the certificate together); a cluster accepted
     without one (spectral engine, exact or trivial acceptances) routes
     on its intra edges alone.

   - an *internal witness* per recursion-tree node: the inter-cluster
     edges whose endpoints diverge at that node, bucketed per ordered
     child pair as portal edges, plus the node's child-connectivity
     graph for multi-hop child sequences.

   Serving routes a demand (src, dst) top-down: descend the recursion
   tree along the common prefix of the two clusters' addresses, walk a
   child sequence at the divergence node crossing one portal edge per
   hop, and solve intra-cluster legs by an LCA walk of the leaf tree
   whose root depths of the two ends sum least. The route is logged as
   legs, not hops: a shortcut is one leg naming its embedded real path
   and edge ids, and so is a climb or descent of several steps along
   one heavy path of the tree, a range of the tree's flat walk arrays;
   charging walks each leg's edge ids in place and only path expansion
   copies them out.

   Portal (and, under [Least_loaded], destination-entry) choices are
   per-*router* state: a [router] owns every cursor, scratch buffer and
   counter one serving stream mutates, so a pool can run one router per
   task over a shared hierarchy and merge the cursor advances back
   deterministically. Everything is deterministic: adjacency orders are
   fixed and cursors advance in demand order. *)

(* ---- the planner's leg log ---- *)

(* Leg [i] of a planned route is either
   - a single hop ([leg_v.(i) >= 0]): the vertex reached, over the edge
     [leg_e.(i)] — a direct intra edge, a portal, or one fallback BFS
     step;
   - a witness bundle ([leg_v.(i)] is [fwd_leg] or [bwd_leg]): the
     shortcut's embedded real path [leg_path.(i)] with its edge ids
     [leg_eids.(i)] ([leg_eids.(i).(q)] joins [leg_path.(i).(q)] and
     [leg_path.(i).(q+1)]), walked from its first vertex to its last
     ([fwd_leg]) or back; or
   - a heavy-path run ([leg_v.(i) = run_leg]): [leg_len.(i)] direct hops
     stored from position [leg_e.(i)] of a leaf tree's flat walk arrays,
     the vertex each hop reaches in [leg_path.(i)] and the edge it
     crosses in [leg_eids.(i)].
   A leg leaves the slots its kind does not use stale; they are never
   read. The four counters are the route's hops by leg kind, so their
   sum is its length. *)
type vec = {
  mutable src : int;
  mutable leg_v : int array;
  mutable leg_e : int array;
  mutable leg_len : int array;
  mutable leg_path : int array array;
  mutable leg_eids : int array array;
  mutable legs : int;
  mutable n_direct : int;
  mutable n_shortcut : int;
  mutable n_portal : int;
  mutable n_fallback : int;
}

let fwd_leg = -1
let bwd_leg = -2
let run_leg = -3

let vec_create () =
  {
    src = 0;
    leg_v = Array.make 64 0;
    leg_e = Array.make 64 0;
    leg_len = Array.make 64 0;
    leg_path = Array.make 64 [||];
    leg_eids = Array.make 64 [||];
    legs = 0;
    n_direct = 0;
    n_shortcut = 0;
    n_portal = 0;
    n_fallback = 0;
  }

let vec_grow v =
  let cap = 2 * v.legs in
  let grow a fill =
    (* lint: allow A001 amortized doubling growth *)
    let b = Array.make cap fill in
    Array.blit a 0 b 0 v.legs;
    b
  in
  v.leg_v <- grow v.leg_v 0;
  v.leg_e <- grow v.leg_e 0;
  v.leg_len <- grow v.leg_len 0;
  v.leg_path <- grow v.leg_path [||];
  v.leg_eids <- grow v.leg_eids [||]

(* append a single hop to vertex [x] over edge [e]; the caller counts it
   under its kind *)
(* lint: hot *)
let push_hop v e x =
  if v.legs = Array.length v.leg_v then vec_grow v;
  v.leg_v.(v.legs) <- x;
  v.leg_e.(v.legs) <- e;
  v.legs <- v.legs + 1

(* lint: hot *)
let push_direct v e x =
  push_hop v e x;
  v.n_direct <- v.n_direct + 1

(* append the walk along the shortcut path [p] with edge ids [eids]:
   forward ends at p.(len-1), backward at p.(0) *)
(* lint: hot *)
let push_bundle v p eids fwd =
  if v.legs = Array.length v.leg_v then vec_grow v;
  v.leg_v.(v.legs) <- (if fwd then fwd_leg else bwd_leg);
  v.leg_path.(v.legs) <- p;
  v.leg_eids.(v.legs) <- eids;
  v.legs <- v.legs + 1;
  v.n_shortcut <- v.n_shortcut + Array.length eids

(* append the [len] direct intra hops stored from [start] in the flat
   arrays [vs] (vertex reached) and [es] (edge crossed) *)
(* lint: hot *)
let push_run v vs es start len =
  if v.legs = Array.length v.leg_v then vec_grow v;
  v.leg_v.(v.legs) <- run_leg;
  v.leg_e.(v.legs) <- start;
  v.leg_len.(v.legs) <- len;
  v.leg_path.(v.legs) <- vs;
  v.leg_eids.(v.legs) <- es;
  v.legs <- v.legs + 1;
  v.n_direct <- v.n_direct + len

let vec_hops v = v.n_direct + v.n_shortcut + v.n_portal + v.n_fallback

(* add [w] to the load of every edge the route crosses: a single hop's
   edge, a run's contiguous edge ids, or each id of a bundle's edge-id
   array *)
(* lint: hot *)
let charge cong v w =
  for i = 0 to v.legs - 1 do
    let x = v.leg_v.(i) in
    if x >= 0 then begin
      let e = v.leg_e.(i) in
      cong.(e) <- cong.(e) + w
    end
    else begin
      let eids = v.leg_eids.(i) in
      let is_run = x = run_leg in
      let lo = if is_run then v.leg_e.(i) else 0 in
      let hi = if is_run then lo + v.leg_len.(i) else Array.length eids in
      for q = lo to hi - 1 do
        let e = eids.(q) in
        cong.(e) <- cong.(e) + w
      done
    end
  done

(* write the route's vertex path into [a] (length [vec_hops v + 1]):
   a run or a forward bundle is one blit *)
(* lint: hot *)
let expand_into v a =
  a.(0) <- v.src;
  let pos = ref 1 in
  for i = 0 to v.legs - 1 do
    let x = v.leg_v.(i) in
    if x >= 0 then begin
      a.(!pos) <- x;
      incr pos
    end
    else if x = run_leg then begin
      let len = v.leg_len.(i) in
      Array.blit v.leg_path.(i) v.leg_e.(i) a !pos len;
      pos := !pos + len
    end
    else begin
      let p = v.leg_path.(i) in
      let len = Array.length p in
      if x = fwd_leg then Array.blit p 1 a !pos (len - 1)
      else
        for q = 0 to len - 2 do
          a.(!pos + q) <- p.(len - 2 - q)
        done;
      pos := !pos + len - 1
    end
  done

let vec_to_array v =
  let a = Array.make (vec_hops v + 1) 0 in
  expand_into v a;
  a

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

(* One BFS tree of a leaf over its intra-cluster edges, laid out by heavy
   paths: a member's heavy child is its largest subtree (first in BFS
   order on ties), and positions are handed out in heavy-first preorder,
   so every heavy path occupies consecutive positions, parent before
   child, and every subtree one interval. Every up entry is one direct
   edge, stored twice by position: walked upward, position [p]'s hop
   (the parent reached, the edge crossed) sits at [up_vs]/[up_es] index
   [nr - p], positions descending, with [nr] the reached non-root
   members; walked downward, it sits at [dn_vs]/[dn_es] index [p - 1],
   positions ascending. A climb along one heavy path, or the descent
   back, is thus one contiguous range of either pair of arrays. *)
type tree = {
  parent : int array;  (* member idx -> member idx, -1 for root/unreached *)
  depth : int array;   (* tree hops from the root; -1 = unreached *)
  pos : int array;     (* heavy-first preorder position; -1 = unreached *)
  at : int array;      (* position -> member idx *)
  size : int array;    (* members in the subtree, itself included *)
  run : int array;     (* steps up the member's heavy path to its head *)
  up_e : int array;    (* member idx -> its up edge's id *)
  up_pv : int array;   (* member idx -> its parent's vertex id *)
  members : int array; (* the leaf's members: member idx -> vertex id *)
  up_vs : int array;
  up_es : int array;
  dn_vs : int array;
  dn_es : int array;
}

(* A leaf carries [k] BFS trees, rooted at its leader and then at
   farthest points (see [build_leaf]); [dk.(i * k + t)] is member [i]'s
   depth in tree [t] (-1 = unreached), the table an intra leg picks its
   tree from. *)
type leaf = {
  members : int array;  (* ascending vertex ids *)
  trees : tree array;   (* tree 0 is rooted at the leader *)
  k : int;
  dk : int array;
  wadj : ledge array array;   (* full witness adjacency per member *)
  shortcuts : int;      (* matching shortcut edges in the witness graph *)
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
  tmp_buckets : (int, (int * int * int) list ref) Hashtbl.t;
      (* build-time accumulator of (u, v, edge id), emptied by
         [fill_buckets] *)
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
  chain : int array;    (* scratch: LCA descent on the y side *)
  mutable fb_pred : int array;  (* scratch: global-BFS fallback incoming
                                   edges; [||] until the first fallback *)
  mutable fb_queue : int array;
  seq_memo : (int, int array) Hashtbl.t;  (* memoized child sequences *)
  mutable fallbacks : int;  (* legs that left the witness structures *)
  mutable hops_direct : int;  (* hops of the delivered routes, by leg kind *)
  mutable hops_shortcut : int;
  mutable hops_portal : int;
  mutable hops_fallback : int;
  mutable legs_logged : int;  (* legs of the delivered routes *)
  mutable gate : int;  (* divert only past this natural-entry load *)
  mutable div_probes : int;  (* [try_divert] calls that probed entries *)
  mutable div_gated : int;   (* calls the gate skipped *)
  mutable diversions : int;  (* calls that diverted *)
}

let make_router t =
  let n = Graph.n t.g in
  let nb = Array.length t.bucket_of in
  (* the y side of an LCA walk stacks at most the deepest member's depth *)
  let max_depth =
    Array.fold_left
      (fun acc (lf : leaf) ->
        Array.fold_left
          (fun acc tr -> Array.fold_left Int.max acc tr.depth)
          acc lf.trees)
      0 t.leaves
  in
  {
    cursors = Array.make (max 1 nb) 0;
    cadv = Array.make (max 1 nb) 0;
    ecur = Array.make n 0;
    eadv = Array.make n 0;
    chain = Array.make (max_depth + 1) 0;
    fb_pred = [||];
    fb_queue = [||];
    seq_memo = Hashtbl.create 16;
    fallbacks = 0;
    hops_direct = 0;
    hops_shortcut = 0;
    hops_portal = 0;
    hops_fallback = 0;
    legs_logged = 0;
    gate = 0;
    div_probes = 0;
    div_gated = 0;
    diversions = 0;
  }

let zero_counters rt =
  rt.fallbacks <- 0;
  rt.hops_direct <- 0;
  rt.hops_shortcut <- 0;
  rt.hops_portal <- 0;
  rt.hops_fallback <- 0;
  rt.legs_logged <- 0;
  rt.div_probes <- 0;
  rt.div_gated <- 0;
  rt.diversions <- 0

let reset_router t rt =
  let n = Graph.n t.g in
  let nb = Array.length t.bucket_of in
  Array.fill rt.cursors 0 nb 0;
  Array.fill rt.cadv 0 nb 0;
  Array.fill rt.ecur 0 n 0;
  Array.fill rt.eadv 0 n 0;
  rt.gate <- 0;
  zero_counters rt

(* adopt [src]'s cursor positions and the diversion [gate], and start
   counting advances from zero (the memoized child sequences are pure and
   stay) *)
let sync_router t ~gate ~src ~dst =
  let n = Graph.n t.g in
  let nb = Array.length t.bucket_of in
  Array.blit src.cursors 0 dst.cursors 0 nb;
  Array.fill dst.cadv 0 nb 0;
  Array.blit src.ecur 0 dst.ecur 0 n;
  Array.fill dst.eadv 0 n 0;
  dst.gate <- gate;
  zero_counters dst

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
  dst.fallbacks <- dst.fallbacks + src.fallbacks;
  dst.hops_direct <- dst.hops_direct + src.hops_direct;
  dst.hops_shortcut <- dst.hops_shortcut + src.hops_shortcut;
  dst.hops_portal <- dst.hops_portal + src.hops_portal;
  dst.hops_fallback <- dst.hops_fallback + src.hops_fallback;
  dst.legs_logged <- dst.legs_logged + src.legs_logged;
  dst.div_probes <- dst.div_probes + src.div_probes;
  dst.div_gated <- dst.div_gated + src.div_gated;
  dst.diversions <- dst.diversions + src.diversions

let router_fallbacks rt = rt.fallbacks
let router_legs rt = rt.legs_logged

type hops = { direct : int; shortcut : int; portal : int; fallback : int }

let router_hops rt =
  {
    direct = rt.hops_direct;
    shortcut = rt.hops_shortcut;
    portal = rt.hops_portal;
    fallback = rt.hops_fallback;
  }

type diversion = { probed : int; gated : int; diverted : int }

let router_diversion rt =
  { probed = rt.div_probes; gated = rt.div_gated; diverted = rt.diversions }

(* A leaf adds a tree rooted at its farthest member while that member lies
   at least [root_sep] hops from every root so far, up to [max_trees]
   trees. Measured on the bench_e2e workloads, the 64x64 grid's clusters
   (radius 61-63) get 3 or 4 trees and the Apollonian graph (radius 6)
   one; a separation of 24 (6-8 grid trees) cut grid-uniform
   demands_per_s by 32%. *)
let root_sep = 32
let max_trees = 8

(* BFS tree over a leaf's flat intra rows (see [build_leaf]) from member
   [root], laid out by heavy paths. [order], [kids], [heavy] and [next]
   are scratch of the leaf's size, shared by its trees. *)
let bfs_tree members roff rnbr reid ~order ~kids ~heavy ~next root =
  let sz = Array.length members in
  let parent = Array.make sz (-1) and depth = Array.make sz (-1) in
  let up_e = Array.make sz (-1) in
  Array.fill kids 0 sz 0;
  depth.(root) <- 0;
  order.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let i = order.(!head) in
    incr head;
    (* one scan of i's row queues its unreached neighbours and picks its
       parent: the neighbour one level up with the fewest children so far,
       first in row order on ties (levels above i's are complete) *)
    let d = depth.(i) in
    let pick = ref (-1) in
    for q = roff.(i) to roff.(i + 1) - 1 do
      let z = rnbr.(q) in
      let dz = depth.(z) in
      if dz < 0 then begin
        depth.(z) <- d + 1;
        order.(!tail) <- z;
        incr tail
      end
      else if dz = d - 1 && (!pick < 0 || kids.(z) < kids.(rnbr.(!pick)))
      then pick := q
    done;
    if !pick >= 0 then begin
      let z = rnbr.(!pick) in
      parent.(i) <- z;
      kids.(z) <- kids.(z) + 1;
      up_e.(i) <- reid.(!pick)
    end
  done;
  let settled = !tail in
  (* subtree sizes, summed children-first (reverse BFS order), and each
     member's heavy child: its largest subtree, the first in BFS order on
     ties *)
  let size = Array.make sz 1 in
  for q = settled - 1 downto 1 do
    let i = order.(q) in
    size.(parent.(i)) <- size.(parent.(i)) + size.(i)
  done;
  Array.fill heavy 0 sz (-1);
  for q = 1 to settled - 1 do
    let i = order.(q) in
    let p = parent.(i) in
    if heavy.(p) < 0 || size.(i) > size.(heavy.(p)) then heavy.(p) <- i
  done;
  (* heavy-first preorder positions, handed out parents-first (BFS
     order): the heavy child follows its parent, the light children take
     the intervals after the heavy subtree in BFS order. [next.(p)] is
     where [p]'s next light child starts. *)
  let pos = Array.make sz (-1) and run = Array.make sz 0 in
  let at = Array.make settled 0 in
  for q = 0 to settled - 1 do
    let i = order.(q) in
    if q > 0 then begin
      let p = parent.(i) in
      if heavy.(p) = i then begin
        pos.(i) <- pos.(p) + 1;
        run.(i) <- run.(p) + 1
      end
      else begin
        pos.(i) <- next.(p);
        next.(p) <- next.(p) + size.(i)
      end
    end
    else pos.(i) <- 0;
    at.(pos.(i)) <- i;
    next.(i) <- pos.(i) + 1 + (if heavy.(i) >= 0 then size.(heavy.(i)) else 0)
  done;
  let up_pv = Array.make sz (-1) in
  let nr = settled - 1 in
  let up_vs = Array.make nr 0 and up_es = Array.make nr 0 in
  let dn_vs = Array.make nr 0 and dn_es = Array.make nr 0 in
  for p = 1 to nr do
    let c = at.(p) in
    let e = up_e.(c) in
    up_pv.(c) <- members.(parent.(c));
    up_vs.(nr - p) <- up_pv.(c);
    up_es.(nr - p) <- e;
    dn_vs.(p - 1) <- members.(c);
    dn_es.(p - 1) <- e
  done;
  { parent; depth; pos; at; size; run; up_e; up_pv;
    members; up_vs; up_es; dn_vs; dn_es }

(* the representative of a bundle: its minimum edge id *)
let min_eid eids = Array.fold_left Int.min max_int eids

let build_leaf g (view : Distr.Cluster_view.t)
    (dw : Spectral.Expander_decomposition.cluster_witness) ~members ~pos_of =
  let sz = Array.length members in
  let intra = view.Distr.Cluster_view.intra in
  (* matching shortcuts: the decomposition's own witness, each embedded
     path arriving with its edge ids; a cluster without one (spectral
     engine, exact or trivial acceptances) routes on intra edges only *)
  let matchings = dw.Spectral.Expander_decomposition.w_matchings in
  (* each member's witness row: its intra edges in the graph's
     (ascending) row order, then its shortcuts in matching order; rows
     are sized first and filled in place *)
  let row_len = Array.map (fun v -> Array.length intra.(v)) members in
  List.iter
    (fun (pairs, embeds, _) ->
      Array.iteri
        (fun idx (a, b) ->
          if Array.length embeds.(idx) >= 2 then begin
            row_len.(pos_of.(a)) <- row_len.(pos_of.(a)) + 1;
            row_len.(pos_of.(b)) <- row_len.(pos_of.(b)) + 1
          end)
        pairs)
    matchings;
  let blank = { nbr = 0; lpath = [||]; lfwd = true; eids = [||]; rep = 0 } in
  let wadj = Array.map (fun len -> Array.make len blank) row_len in
  let fill = Array.make sz 0 in
  let add i e =
    wadj.(i).(fill.(i)) <- e;
    fill.(i) <- fill.(i) + 1
  in
  (* the intra part of the rows also goes into flat arrays, the rows the
     tree builder scans: member [i]'s neighbours (member indices) and edge
     ids at [rnbr]/[reid] from [roff.(i)] to [roff.(i + 1) - 1] *)
  let roff = Array.make (sz + 1) 0 in
  Array.iteri (fun i v -> roff.(i + 1) <- roff.(i) + Array.length intra.(v))
    members;
  let rnbr = Array.make roff.(sz) 0 and reid = Array.make roff.(sz) 0 in
  let labels = view.Distr.Cluster_view.labels in
  Array.iteri
    (fun i v ->
      Graph.iter_incident g v (fun w e ->
          if labels.(w) = labels.(v) then begin
            rnbr.(roff.(i) + fill.(i)) <- pos_of.(w);
            reid.(roff.(i) + fill.(i)) <- e;
            add i
              { nbr = pos_of.(w); lpath = [||]; lfwd = true;
                eids = [| e |]; rep = e }
          end))
    members;
  let shortcuts = ref 0 in
  List.iter
    (fun (pairs, embeds, eidss) ->
      Array.iteri
        (fun idx (a, b) ->
          let p = embeds.(idx) in
          if Array.length p >= 2 then begin
            incr shortcuts;
            let ia = pos_of.(a) and ib = pos_of.(b) in
            let eids = eidss.(idx) in
            let rep = min_eid eids in
            add ia { nbr = ib; lpath = p; lfwd = true; eids; rep };
            add ib { nbr = ia; lpath = p; lfwd = false; eids; rep }
          end)
        pairs)
    matchings;
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
      let d = Array.length intra.(v) in
      if d > !best then begin
        best := d;
        leader := v
      end)
    members;
  let leader = !leader in
  (* BFS trees over the intra edges: the first rooted at the leader, each
     next at the member farthest from every root so far (smallest member
     on ties), while it lies at least [root_sep] hops from all of them.
     Shortcut entries stay in [wadj] for diversion only: an embedded path
     lies inside the cluster, so it can at best tie the intra edges. *)
  let order = Array.make sz 0 and kids = Array.make sz 0 in
  let heavy = Array.make sz 0 and next = Array.make sz 0 in
  let mind = Array.make sz max_int in  (* hops to the nearest root *)
  let rec grow acc nt root =
    let tr = bfs_tree members roff rnbr reid ~order ~kids ~heavy ~next root in
    mind.(root) <- 0;
    let far = ref root in
    for i = 0 to sz - 1 do
      let d = tr.depth.(i) in
      if d >= 0 then begin
        if d < mind.(i) then mind.(i) <- d;
        if mind.(i) > mind.(!far) then far := i
      end
    done;
    if nt + 1 < max_trees && mind.(!far) >= root_sep then
      grow (tr :: acc) (nt + 1) !far
    else Array.of_list (List.rev (tr :: acc))
  in
  let trees = grow [] 0 pos_of.(leader) in
  let k = Array.length trees in
  let dk =
    if k = 1 then trees.(0).depth
    else begin
      let dk = Array.make (sz * k) 0 in
      Array.iteri
        (fun t tr -> Array.iteri (fun i d -> dk.((i * k) + t) <- d) tr.depth)
        trees;
      dk
    end
  in
  { members; trees; k; dk; wadj; shortcuts = !shortcuts }

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
      add ((i * nc) + j) (u, v, e);
      add ((j * nc) + i) (v, u, e))
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
            let l =
              Array.of_list (List.rev !(Hashtbl.find nd.tmp_buckets key))
            in
            let ports = Array.map (fun (u, v, _) -> (u, v)) l in
            let port_eids = Array.map (fun (_, _, e) -> e) l in
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
  rebuilt_leaves : int; (* always 0: no leaf replays a game *)
  max_leaf_depth : int; (* deepest member over every tree of every leaf *)
  tree_height : int;    (* recursion-tree height *)
}

let build ?(pool = Parallel.Pool.sequential) g
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
  (* leaves are independent of each other: fan the builds out over the
     pool *)
  let leaves =
    Obs.Span.with_ "route.leaves" (fun () ->
        Parallel.Pool.mapi pool
          (fun l () ->
            build_leaf g view d.Spectral.Expander_decomposition.witnesses.(l)
              ~members:members.(l) ~pos_of)
          (Array.make k ()))
  in
  let root, (bucket_of, seq_stride) =
    Obs.Span.with_ "route.buckets" (fun () ->
        let root = build_node paths ~depth:0 (List.init k Fun.id) in
        ( root,
          fill_buckets root paths labels g
            d.Spectral.Expander_decomposition.inter_edges ))
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
        Obs.Metric.count "route.trees" lf.k)
      leaves;
    Obs.Metric.count "route.ports"
      (2 * List.length d.Spectral.Expander_decomposition.inter_edges)
  end;
  { g; labels; paths; pos_of; leaves; root; bucket_of; wdeg; seq_stride }

let info t =
  let shortcuts = ref 0 in
  let max_depth = ref 0 in
  Array.iter
    (fun (lf : leaf) ->
      shortcuts := !shortcuts + lf.shortcuts;
      Array.iter
        (fun tr ->
          Array.iter (fun d -> if d > !max_depth then max_depth := d) tr.depth)
        lf.trees)
    t.leaves;
  let rec height nd =
    if Array.length nd.children = 0 then 0
    else 1 + Array.fold_left (fun acc c -> max acc (height c)) 0 nd.children
  in
  {
    clusters = Array.length t.leaves;
    shortcuts = !shortcuts;
    rebuilt_leaves = 0;
    max_leaf_depth = !max_depth;
    tree_height = height t.root;
  }

(* lint: allow U001 test oracle: exposes bundles to recheck their edge ids *)
let iter_bundles t f =
  Array.iter
    (fun (lf : leaf) ->
      Array.iter
        (Array.iter (fun e ->
             if Array.length e.lpath > 0 then f e.lpath e.eids e.rep))
        lf.wadj)
    t.leaves

(* lint: allow U001 test oracle: exposes the leaf trees to recheck the walk *)
let iter_tree_edges t f =
  Array.iter
    (fun (lf : leaf) ->
      Array.iteri
        (fun ti tr ->
          let nr = Array.length tr.dn_vs in
          for p = 1 to nr do
            f ~tree:ti tr.dn_vs.(p - 1) tr.up_vs.(nr - p) tr.dn_es.(p - 1)
          done)
        lf.trees)
    t.leaves

(* ---- serving ---- *)

(* live load of edge [e]; an edge past the end of [cong] reads as zero,
   so a short (or empty) array degrades least-loaded to its edge-id
   tie-break *)
(* lint: hot *)
let load cong e = if e < Array.length cong then cong.(e) else 0

(* append the climb of [j] steps from member [c] up its heavy path in
   tree [tr] (the route ends at c) *)
(* lint: hot *)
let push_climb tr out c j =
  push_run out tr.up_vs tr.up_es (Array.length tr.up_vs - tr.pos.(c)) j

(* append the reverse: from [c]'s [j]-th ancestor down to [c] *)
(* lint: hot *)
let push_descent tr out c j = push_run out tr.dn_vs tr.dn_es (tr.pos.(c) - j) j

(* append member [c]'s hop up to its parent (the route ends at c) *)
(* lint: hot *)
let push_up tr out c = push_direct out tr.up_e.(c) tr.up_pv.(c)

(* append the hop down from [c]'s parent to [c] (the route ends at the
   parent) *)
(* lint: hot *)
let push_down tr out c = push_direct out tr.up_e.(c) tr.members.(c)

(* append the traversal of witness entry [e] (stored on member [self]'s
   row, so oriented self -> nbr iff [e.lfwd]) in the nbr -> self
   direction; the route currently ends at nbr *)
(* lint: hot *)
let push_entry_back lf out self e =
  if Array.length e.lpath = 0 then push_direct out e.eids.(0) lf.members.(self)
  else push_bundle out e.lpath e.eids (not e.lfwd)

(* last-resort leg: BFS on the whole graph. Reached when the witness
   structures cannot connect the endpoints (disconnected input, or a
   baseline decomposition whose clusters are not internally connected);
   metered so benches can assert it stays cold. *)
let fallback t rt out x y =
  rt.fallbacks <- rt.fallbacks + 1;
  Obs.Metric.incr "route.fallbacks";
  let n = Graph.n t.g in
  (* fallbacks stay cold on connected clusters, so a router allocates its
     two n-sized BFS arrays only when it first needs them *)
  if Array.length rt.fb_pred < n then begin
    rt.fb_pred <- Array.make n (-1);
    rt.fb_queue <- Array.make n 0
  end;
  (* fb_pred.(w) = id of the edge w was first reached over (-1 =
     unreached); its other endpoint is w's BFS predecessor *)
  Array.fill rt.fb_pred 0 n (-1);
  rt.fb_pred.(x) <- max_int;  (* reached, with no incoming edge *)
  let head = ref 0 and tail = ref 0 in
  rt.fb_queue.(!tail) <- x;
  incr tail;
  while !head < !tail && rt.fb_pred.(y) < 0 do
    let v = rt.fb_queue.(!head) in
    incr head;
    Graph.iter_incident t.g v (fun w e ->
        if rt.fb_pred.(w) < 0 then begin
          rt.fb_pred.(w) <- e;
          rt.fb_queue.(!tail) <- w;
          incr tail
        end)
  done;
  if rt.fb_pred.(y) < 0 then false
  else begin
    (* stack the path's vertices from y back to x in the queue, whose BFS
       use is over, then append them from x's end *)
    let stack = rt.fb_queue in
    let k = ref 0 in
    let c = ref y in
    while !c <> x do
      stack.(!k) <- !c;
      incr k;
      let a, b = Graph.endpoints t.g rt.fb_pred.(!c) in
      c := if a = !c then b else a
    done;
    for i = !k - 1 downto 0 do
      let c = stack.(i) in
      push_hop out rt.fb_pred.(c) c
    done;
    out.n_fallback <- out.n_fallback + !k;
    true
  end

(* runs shorter than this step one hop at a time: on the grid's deep
   trees the long heavy paths carry most hops, on planar trees runs are
   short and a one-hop step costs less than a run leg *)
let jump_min = 4

(* walk tree [tr] from member [px] to member [py] (LCA walk);
   both must be reached. out currently ends at members.(px). A side
   climbs [j >= jump_min] steps of its heavy path as one run leg. While
   the two sides climb in lockstep at equal depth they lie on different
   heavy paths, so they cannot meet within the shorter of their two
   runs: a common ancestor inside both runs would lie on both paths. *)
(* lint: hot *)
let tree_walk rt tr out px py =
  let px = ref px and py = ref py in
  let chain = rt.chain in
  let k = ref 0 in
  while tr.depth.(!px) > tr.depth.(!py) do
    let c = !px in
    let j = Int.min tr.run.(c) (tr.depth.(c) - tr.depth.(!py)) in
    if j >= jump_min then begin
      push_climb tr out c j;
      px := tr.at.(tr.pos.(c) - j)
    end
    else begin
      push_up tr out c;
      px := tr.parent.(c)
    end
  done;
  while tr.depth.(!py) > tr.depth.(!px) do
    let c = !py in
    let j = Int.min tr.run.(c) (tr.depth.(c) - tr.depth.(!px)) in
    chain.(!k) <- c;
    incr k;
    py := if j >= jump_min then tr.at.(tr.pos.(c) - j) else tr.parent.(c)
  done;
  while !px <> !py do
    let cx = !px and cy = !py in
    let j = Int.min tr.run.(cx) tr.run.(cy) in
    chain.(!k) <- cy;
    incr k;
    if j >= jump_min then begin
      push_climb tr out cx j;
      px := tr.at.(tr.pos.(cx) - j);
      py := tr.at.(tr.pos.(cy) - j)
    end
    else begin
      push_up tr out cx;
      px := tr.parent.(cx);
      py := tr.parent.(cy)
    end
  done;
  (* each y-side leg descends from the member stacked above it (the LCA
     for the topmost) to its own member *)
  let above = ref tr.depth.(!px) in
  for i = !k - 1 downto 0 do
    let c = chain.(i) in
    let d = tr.depth.(c) in
    let j = d - !above in
    above := d;
    if j = 1 then push_down tr out c else push_descent tr out c j
  done

(* is reached member [anc] an ancestor of reached member [c]
   (inclusive)? [c]'s position falls in [anc]'s subtree interval *)
(* lint: hot *)
let ancestor_of tr anc c =
  let d = tr.pos.(c) - tr.pos.(anc) in
  d >= 0 && d < tr.size.(anc)

(* the edge id a bundle walked from [self] starts with: its first edge
   when the bundle is oriented away from [self], else its last *)
(* lint: hot *)
let first_eid eids away =
  if away then eids.(0) else eids.(Array.length eids - 1)

(* heaviest load over the edge ids [es] if it is at most [lim], else any
   value above [lim] (the scan stops at the first edge past it) *)
(* lint: hot *)
let capped_cost cong es lim =
  let c = ref 0 and i = ref 0 in
  while !i < Array.length es && !c <= lim do
    let l = load cong es.(!i) in
    if l > !c then c := l;
    incr i
  done;
  !c

(* the load on reached non-root member [c]'s up edge in tree [tr] *)
(* lint: hot *)
let up_load cong tr c = load cong tr.up_e.(c)

(* what a diversion through witness entry [e] into [py] costs: the
   heaviest load over the entry's own bundle and the two tree edges the
   detour walk descends last (z's up edge and z's parent's), capped as
   in [capped_cost] *)
(* lint: hot *)
let entry_cost cong tr e lim =
  let c = capped_cost cong e.eids lim in
  let z = e.nbr in
  if c > lim || tr.parent.(z) < 0 then c
  else begin
    let c = Int.max c (up_load cong tr z) in
    let pz = tr.parent.(z) in
    if c > lim || tr.parent.(pz) < 0 then c
    else Int.max c (up_load cong tr pz)
  end

(* Least-loaded destination entry: when the walk of tree [tr] would
   descend into [py] over its up edge, probe the next two eligible
   witness entries (z, y) from a rotating cursor and divert to the
   cheaper one ([entry_cost]; ties to the smaller representative edge id)
   when it is strictly cheaper than the natural edge. An entry is
   eligible when depth(z) <= depth(y) in [tr] — shallower entries keep
   the detour walk x -> z away from y — and its edge into y is not the
   natural edge, which a diversion would still cross. Probing is skipped
   when the natural edge is not hot, its load at most [rt.gate] (0 at a
   reset, so only a cold entry is skipped then). Returns [true] when it
   emitted the whole leg. *)
let try_divert rt ~cong lf tr out px py =
  let wadj = lf.wadj.(py) in
  let deg = Array.length wadj in
  let y = lf.members.(py) in
  let hot = tr.up_e.(py) in
  let cn = load cong hot in
  if cn <= rt.gate then begin
    rt.div_gated <- rt.div_gated + 1;
    false
  end
  else begin
    rt.div_probes <- rt.div_probes + 1;
    let dy = tr.depth.(py) in
    let cur = rt.ecur.(y) in
    rt.ecur.(y) <- (if cur + 1 >= deg then 0 else cur + 1);
    rt.eadv.(y) <- rt.eadv.(y) + 1;
    (* the best entry so far and its cost; the natural edge starts as the
       best with a tie-break no entry wins *)
    let best = ref (-1) and best_c = ref cn and best_rep = ref min_int in
    let probes = ref 0 and i = ref 0 in
    while !probes < 2 && !i < deg do
      let idx =
        let s = cur + !i in
        if s >= deg then s - deg else s
      in
      let e = wadj.(idx) in
      let dz = tr.depth.(e.nbr) in
      if
        dz >= 0 && dz <= dy && e.nbr <> py && first_eid e.eids e.lfwd <> hot
      then begin
        incr probes;
        (* [e] wins iff its cost is below the best, or equal with a
           smaller representative *)
        let lim = if e.rep < !best_rep then !best_c else !best_c - 1 in
        let c = entry_cost cong tr e lim in
        if c <= lim then begin
          best := idx;
          best_c := c;
          best_rep := e.rep
        end
      end;
      incr i
    done;
    if !best < 0 then false
    else begin
      let e = wadj.(!best) in
      rt.diversions <- rt.diversions + 1;
      tree_walk rt tr out px e.nbr;
      push_entry_back lf out py e;
      true
    end
  end

(* the tree an intra leg between reached members [px] and [py] walks: the
   one minimising dk(x, t) + dk(y, t), ties to the lower t. Under
   [Least_loaded] (ll), a runner-up within 1.5x of that sum is taken
   instead when its natural entry into y (y's up edge there) is strictly
   lighter; a tree rooted at y has no up edge into y and never counts as
   lighter. *)
(* lint: hot *)
let pick_tree ~ll ~cong lf px py =
  let k = lf.k and dk = lf.dk in
  let bx = px * k and by = py * k in
  let best = ref 0 and bs = ref (dk.(bx) + dk.(by)) in
  let second = ref (-1) and ss = ref max_int in
  for t = 1 to k - 1 do
    let s = dk.(bx + t) + dk.(by + t) in
    if s < !bs then begin
      second := !best;
      ss := !bs;
      best := t;
      bs := s
    end
    else if s < !ss then begin
      second := t;
      ss := s
    end
  done;
  let b = !best and r = !second in
  if ll && r >= 0 && 2 * !ss <= 3 * !bs then begin
    let lb =
      if dk.(by + b) = 0 then max_int else up_load cong lf.trees.(b) py
    and lr =
      if dk.(by + r) = 0 then max_int else up_load cong lf.trees.(r) py
    in
    if lr < lb then r else b
  end
  else b

(* route x -> y inside leaf [lf] *)
let leaf_route t rt ~ll ~cong lf out x y =
  if x = y then true
  else begin
    let px = t.pos_of.(x) and py = t.pos_of.(y) in
    let tr0 = lf.trees.(0) in
    if tr0.depth.(px) < 0 || tr0.depth.(py) < 0 then fallback t rt out x y
    else begin
      let tr =
        if lf.k = 1 then tr0 else lf.trees.(pick_tree ~ll ~cong lf px py)
      in
      (* diversion applies only when y is not an ancestor of x: then the
         walk's last hop is the descent over y's up edge, and a detour
         through a not-deeper witness neighbor of y cannot pass through
         y itself *)
      let done_ =
        ll
        && Array.length lf.wadj.(py) > 1
        && tr.depth.(py) > 0
        && (not (ancestor_of tr py px))
        && try_divert rt ~cong lf tr out px py
      in
      if not done_ then tree_walk rt tr out px py;
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
          let k = pick_port rt ~ll ~cong bk in
          let u, v = bk.ports.(k) in
          ok := route_under t rt ~ll ~cong nd.children.(a) out !cur u;
          if !ok then begin
            push_hop out bk.port_eids.(k) v;
            out.n_portal <- out.n_portal + 1;
            cur := v
          end);
      incr s
    done;
    if !ok then route_under t rt ~ll ~cong nd.children.(j) out !cur y
    else fallback t rt out !cur y
  end

(* plan one demand into [out] (cleared first). Returns [false] iff the
   endpoints are unreachable even by the global fallback; on success the
   vec holds the route's legs from [src] to [dst] in hop order, and the
   router's per-kind hop counters take its hops. *)
let route ~policy ~cong t rt out src dst =
  let n = Graph.n t.g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Route.Hierarchy.route: vertex out of range";
  out.src <- src;
  out.legs <- 0;
  out.n_direct <- 0;
  out.n_shortcut <- 0;
  out.n_portal <- 0;
  out.n_fallback <- 0;
  let ll = policy = Least_loaded in
  let ok = route_under t rt ~ll ~cong t.root out src dst in
  if ok then begin
    rt.hops_direct <- rt.hops_direct + out.n_direct;
    rt.hops_shortcut <- rt.hops_shortcut + out.n_shortcut;
    rt.hops_portal <- rt.hops_portal + out.n_portal;
    rt.hops_fallback <- rt.hops_fallback + out.n_fallback;
    rt.legs_logged <- rt.legs_logged + out.legs
  end;
  ok
