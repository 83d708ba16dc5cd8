(* Flow-based expander decomposition: Spectral.Expander_decomposition.drive
   with a different cluster judge — cheap cut heuristics, then the
   cut-matching game — instead of Fiedler sweeps. Recursion, seeding,
   thresholds and labels are the driver's, so the two engines are drop-in
   interchangeable and both are deterministic across pool sizes. *)

type stats = {
  games : int;           (* cut-matching games played *)
  game_rounds : int;     (* rounds across all games *)
  flow_calls : int;      (* bounded push-relabel runs *)
  heuristic_cuts : int;  (* clusters split by a cheap heuristic, no game *)
}

let zero_stats =
  { games = 0; game_rounds = 0; flow_calls = 0; heuristic_cuts = 0 }

let add_stats a b =
  {
    games = a.games + b.games;
    game_rounds = a.game_rounds + b.game_rounds;
    flow_calls = a.flow_calls + b.flow_calls;
    heuristic_cuts = a.heuristic_cuts + b.heuristic_cuts;
  }

(* Judge one connected cluster: a heuristic cut if one is below tau,
   otherwise the game's verdict; an accepted cluster keeps the game's
   routed matchings as its witness. *)
let judge sub mapping ~tau ~seed =
  let open Spectral.Expander_decomposition in
  match Cut_heuristics.cheapest sub ~tau with
  | Some hit ->
      (Cut hit.Cut_heuristics.side, { zero_stats with heuristic_cuts = 1 })
  | None -> (
      let verdict, g_stats = Cut_matching.run sub ~tau ~seed in
      let stats =
        {
          games = 1;
          game_rounds = g_stats.Cut_matching.rounds_played;
          flow_calls = g_stats.Cut_matching.flow_calls;
          heuristic_cuts = 0;
        }
      in
      match verdict with
      | Cut_matching.Expander w ->
          let w_matchings = Cut_matching.original_matchings mapping w in
          ( Accept
              {
                w_path = [];
                w_matchings;
                w_congestion = w.Cut_matching.congestion;
                w_dilation = w.Cut_matching.max_path_length;
                w_source =
                  (if w_matchings = [] then "trivial" else "cutmatching");
              },
            stats )
      | Cut_matching.Cut c -> (Cut c.Cut_matching.side, stats))

let decompose ?(pool = Parallel.Pool.sequential) g ~epsilon =
  Spectral.Expander_decomposition.drive ~entry:"Decomp_engine.decompose"
    ~span:"cm-decompose" ~singleton:"trivial" ~exact:"exact" ~judge ~zero:zero_stats
    ~add:add_stats
    ~report:(fun s ->
      Obs.Metric.count "cm.games" s.games;
      Obs.Metric.count "cm.heuristic_cuts" s.heuristic_cuts)
    ~pool g ~epsilon
