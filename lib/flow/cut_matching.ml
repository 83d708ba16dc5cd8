open Sparse_graph

(* The cut-matching game (Khandekar-Rao-Vazirani style): the cut player
   sorts the vertices by a random projection vector and proposes the
   balanced bisection; the matching player tries to route a perfect
   matching across it with per-edge capacity ~ 1/tau and bounded
   push-relabel height. A routed matching averages the projection
   vectors (driving their variance potential down); a failed routing
   yields a level cut. The game ends with either a sparse cut or a
   sequence of embedded matchings that certifies the cluster behaves
   like an expander.

   Before any flow runs in a round, the projection order itself is swept
   (Spectral.Sweep_cut.sweep_order): if it already exposes a cut sparser
   than tau, the round is settled for free. The sweep and the bisection
   read the same sorted order, so each round sorts once. *)

(* The game's budgets, the same for every caller: 4 + ceil(2 log2 n)
   rounds, per-edge capacity ceil(1 / tau), push-relabel height
   ceil(log2 n / tau), two projection vectors, and acceptance once the
   potential falls to 1e-3 of its start. [~adaptive] adds the plateau
   exit and the size-scaled vector count. *)
let potential_drop = 1e-3
let flow_vectors = 2
let plateau_window = 2      (* accept after this many low-drop rounds *)
let plateau_drop = 0.05     (* relative per-round drop counted as progress *)

type witness = {
  rounds : int;            (* rounds actually played *)
  matchings : (int * int) array list;  (* newest first, one per routed round *)
  embeddings : int array array list;
      (* aligned with [matchings]: embeddings.(r).(i) is the real vertex
         path routing pair matchings.(r).(i), src first, dst last *)
  edge_paths : int array array list;
      (* aligned with [embeddings]: edge_paths.(r).(i).(q) is the edge
         joining embeddings.(r).(i).(q) and its successor *)
  congestion : int;        (* per-edge capacity all matchings routed under *)
  max_path_length : int;   (* dilation over every embedded matching path *)
  potential : float;       (* final / initial projection variance *)
}

(* in place: the witness's arrays are the bulk of an accepted cluster's
   garbage otherwise, and every caller drops [w] right after. Each pair
   is read back off its mapped path's ends (source first, sink last). *)
let original_matchings (mapping : Graph_ops.mapping) w =
  let remap map a =
    for i = 0 to Array.length a - 1 do
      a.(i) <- map.(a.(i))
    done
  in
  let rec go es ps =
    match (es, ps) with
    | embeds :: es, eids :: ps ->
        Array.iter (remap mapping.to_orig) embeds;
        Array.iter (remap mapping.edge_to_orig) eids;
        let ends p = (p.(0), p.(Array.length p - 1)) in
        (Array.map ends embeds, embeds, eids) :: go es ps
    | _ -> []
  in
  go w.embeddings w.edge_paths

type cut = { side : bool array; conductance : float; via : string }

type verdict = Expander of witness | Cut of cut

type stats = { rounds_played : int; flow_calls : int }

let trivial_witness =
  { rounds = 0; matchings = []; embeddings = []; edge_paths = [];
    congestion = 0; max_path_length = 0; potential = 0. }

(* mean-centered variance of a projection vector *)
let potential_of vecs =
  let total = ref 0. in
  Array.iter
    (fun x ->
      let n = Array.length x in
      let mean = Array.fold_left ( +. ) 0. x /. float_of_int n in
      Array.iter (fun v -> total := !total +. (( v -. mean) *. (v -. mean))) x)
    vecs;
  !total

let log2f x = log x /. log 2.

let run ~adaptive g ~tau ~seed =
  let n = Graph.n g in
  if n <= 3 || Graph.m g = 0 || tau <= 0. then
    (Expander trivial_witness, { rounds_played = 0; flow_calls = 0 })
  else begin
    let rounds_cap = 4 + int_of_float (ceil (2. *. log2f (float_of_int n))) in
    let cap = max 1 (int_of_float (ceil (1. /. tau))) in
    let limit =
      min (n + 1)
        (max 2 (int_of_float (ceil (log2f (float_of_int n) /. tau))))
    in
    let net = Net.of_graph ~capacity:(fun _ -> cap) g in
    let k =
      if adaptive then
        (* small clusters mix with fewer projection vectors; one per ~7
           doubling levels, capped at [flow_vectors] *)
        let lg = int_of_float (ceil (log2f (float_of_int n))) in
        max 1 (min flow_vectors (lg / 7))
      else flow_vectors
    in
    let vecs =
      Array.init k (fun i ->
          let st =
            Random.State.make
              [| Parallel.Pool.derive_seed seed ((i * 7_368_787) + 1) |]
          in
          Array.init n (fun _ -> if Random.State.bool st then 1. else -1.))
    in
    let p0 = max epsilon_float (potential_of vecs) in
    let order = Array.init n (fun v -> v) in
    let supply = Array.make n 0 in
    let sink_cap = Array.make n 0 in
    let matchings = ref [] in
    let embeddings = ref [] in
    let edge_paths = ref [] in
    let max_path_length = ref 0 in
    let verdict = ref None in
    let round = ref 0 in
    let flow_calls = ref 0 in
    let prev_potential = ref p0 in
    let plateau_streak = ref 0 in
    while !verdict = None && !round < rounds_cap do
      Obs.Span.with_ "cm.round" @@ fun () ->
      let active = vecs.(!round mod k) in
      (* one sort per round: the flow-free sweep and the balanced
         bisection both read this order *)
      let swept =
        Obs.Span.with_ "cm.sweep" (fun () ->
            Spectral.Sweep_cut.sort_order active order;
            Spectral.Sweep_cut.sweep_order g order)
      in
      if swept.Spectral.Sweep_cut.conductance < tau then begin
        Obs.Metric.incr "cm.projection_cuts";
        verdict :=
          Some
            (Cut
               { side = swept.Spectral.Sweep_cut.side;
                 conductance = swept.Spectral.Sweep_cut.conductance;
                 via = "projection" })
      end
      else begin
        let half = n / 2 in
        Array.fill supply 0 n 0;
        Array.fill sink_cap 0 n 0;
        for i = 0 to half - 1 do
          supply.(order.(i)) <- 1
        done;
        for i = half to n - 1 do
          sink_cap.(order.(i)) <- 1
        done;
        Net.reset net;
        incr flow_calls;
        let outcome =
          Obs.Span.with_ "cm.flow" (fun () ->
              Push_relabel.run net ~supply ~sink_cap ~limit)
        in
        if Push_relabel.fully_routed outcome then begin
          (* embed the matching, average the vectors along its pairs *)
          let dec =
            Obs.Span.with_ "cm.paths" (fun () -> Path_decompose.decompose net)
          in
          if dec.Path_decompose.max_length > !max_path_length then
            max_path_length := dec.Path_decompose.max_length;
          let paths = dec.Path_decompose.vertices in
          let pairs =
            Array.map (fun p -> (p.(0), p.(Array.length p - 1))) paths
          in
          matchings := pairs :: !matchings;
          embeddings := paths :: !embeddings;
          edge_paths := dec.Path_decompose.edges :: !edge_paths;
          Array.iter
            (fun x ->
              Array.iter
                (fun (a, b) ->
                  let avg = (x.(a) +. x.(b)) /. 2. in
                  x.(a) <- avg;
                  x.(b) <- avg)
                pairs)
            vecs;
          let p = potential_of vecs in
          let accept () =
            verdict :=
              Some
                (Expander
                   { rounds = !round + 1;
                     matchings = !matchings;
                     embeddings = !embeddings;
                     edge_paths = !edge_paths;
                     congestion = cap;
                     max_path_length = !max_path_length;
                     potential = p /. p0 })
          in
          if p <= potential_drop *. p0 then accept ()
          else if adaptive then begin
            (* adaptive budget: successive routed rounds that barely move
               the potential mean the remaining variance is already spread
               across the embedded matchings — stop paying for more flow *)
            (* lint: allow A002 float potential; Float.max handles NaN differently *)
            let rel = (!prev_potential -. p) /. max epsilon_float !prev_potential in
            if rel < plateau_drop then incr plateau_streak
            else plateau_streak := 0;
            if !plateau_streak >= plateau_window then begin
              Obs.Metric.incr "cm.plateau_exits";
              accept ()
            end
          end;
          prev_potential := p
        end
        else begin
          (* routing failed: the level structure certifies a cut *)
          Obs.Metric.incr "cm.flow_cuts";
          let level =
            Push_relabel.level_cut g ~height:outcome.Push_relabel.height ~limit
          in
          let side, conductance, via =
            match level with
            | Some (side, c)
              when c <= swept.Spectral.Sweep_cut.conductance ->
                (side, c, "flow")
            | Some _ | None ->
                ( swept.Spectral.Sweep_cut.side,
                  swept.Spectral.Sweep_cut.conductance,
                  "projection-fallback" )
          in
          verdict := Some (Cut { side; conductance; via })
        end
      end;
      incr round
    done;
    let v =
      match !verdict with
      | Some v -> v
      | None ->
          (* rounds exhausted with every matching routed: accept *)
          Expander
            { rounds = !round;
              matchings = !matchings;
              embeddings = !embeddings;
              edge_paths = !edge_paths;
              congestion = cap;
              max_path_length = !max_path_length;
              potential = potential_of vecs /. p0 }
    in
    Obs.Metric.count "cm.rounds" !round;
    Obs.Metric.count "cm.flow_calls" !flow_calls;
    (v, { rounds_played = !round; flow_calls = !flow_calls })
  end
