(* Active-vertex scheduler tests: Network.run against
   Network.run_reference. The qcheck suites pin the equivalence contract —
   identical final states and statistics on fault-free runs and under
   fixed fault seeds, at every pool size, for the chaos algorithm as
   written and with every vertex woken every round — and the unit tests
   pin the event-mode corners: halting-round sends,
   recover-round empty inboxes, halted-receiver drop accounting,
   wake_after validation, fast-forward round accounting, inbox
   ordering, and the worklist order of unsorted rounds on large shards. *)

open Sparse_graph
open Congest

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let pp_stats ppf (s : Network.stats) =
  Format.fprintf ppf
    "rounds=%d messages=%d dropped=%d duplicated=%d crashed_rounds=%d \
     total_bits=%d max_edge_bits=%d completed=%b last_traffic=%d"
    s.rounds s.messages s.dropped s.duplicated s.crashed_rounds s.total_bits
    s.max_edge_bits s.completed s.last_traffic_round

let stats = Alcotest.testable pp_stats (fun (a : Network.stats) b -> a = b)

(* ------------------------------------------------------------------ *)
(* Chaos workload                                                      *)
(* ------------------------------------------------------------------ *)

(* A deterministic algorithm exercising the scheduler while obeying the
   wake-up contract: vertex v originates traffic on multiples of its own
   period, relays on a hash predicate when messages arrive, and halts one
   round past the budget. A step with an empty inbox outside those rounds
   returns the state unchanged and sends nothing, so Network.run may
   legally skip it. The inbox fold is order-sensitive on purpose: any
   deviation in delivery order between the loops shows up in the final
   states. *)
let mix a b = ((a * 0x9e3779b1) lxor ((b * 0x85ebca6b) + 0x27d4eb2f)) land 0xfffffff

let chaos_budget = 24

let chaos_round r (ctx : Network.ctx) st inbox =
  let v = ctx.id in
  let st =
    List.fold_left
      (fun a (s, x) -> ((a * 31) + (s * 7) + x) mod 1_000_003)
      st inbox
  in
  if r > chaos_budget then begin
    (* a halting vertex's final sends still go out *)
    let send =
      if v land 1 = 0 && Array.length ctx.neighbors > 0 then
        [ (ctx.neighbors.(0), st land 63) ]
      else []
    in
    Network.step st ~send ~halt:true
  end
  else begin
    let period = 2 + (v mod 3) in
    let fires = r mod period = 0 in
    let send =
      if fires then
        let m = (st + (r * 13) + v) land 1023 in
        Array.to_list (Array.map (fun w -> (w, m)) ctx.neighbors)
      else if inbox <> [] && mix v (st + r) land 3 = 0 then
        List.filter_map
          (fun w -> if w land 1 = 1 then Some (w, st land 255) else None)
          (Array.to_list ctx.neighbors)
      else []
    in
    let st = if fires || inbox <> [] then (st + 1) mod 1_000_003 else st in
    let d = period - (r mod period) in
    let wake = if r + d > chaos_budget then chaos_budget + 1 - r else d in
    Network.step st ~send ~wake_after:wake
  end

let chaos_init (ctx : Network.ctx) = (ctx.id * 97) land 1023

(* the same algorithm as a round-clock protocol: every non-halting step
   asks to be stepped again next round, so no vertex ever sleeps *)
let chaos_wake_everyone r ctx st inbox =
  let s = chaos_round r ctx st inbox in
  if s.Network.halt then s else { s with Network.wake_after = Some 1 }

(* the chaos protocol with every message wrapped in a boxed value, so the
   arenas carry pointers rather than immediates; the states stay ints and
   compare directly against the plain run *)
type boxed = { payload : int }

let boxed_round round r ctx st inbox =
  let s = round r ctx st (List.map (fun (u, b) -> (u, b.payload)) inbox) in
  let send = List.map (fun (w, m) -> (w, { payload = m })) s.Network.send in
  { s with Network.send }

(* worker pools shared by the sharded runs below; created on first use *)
let shard_pool1 = lazy (Parallel.Pool.create ~jobs:1 ())
let shard_pool4 = lazy (Parallel.Pool.create ~jobs:4 ())

let shard_pool jobs = Lazy.force (if jobs = 1 then shard_pool1 else shard_pool4)

let run_chaos ?faults ~how g =
  let n = Graph.n g in
  match how with
  | `Reference ->
      Network.run_reference ?faults g ~bandwidth:Network.Local
        ~msg_bits:(fun _ -> Bits.id_bits n)
        ~init:chaos_init ~round:chaos_round
        ~max_rounds:(chaos_budget + 2)
  | `Wake_everyone ->
      Network.run ?faults g ~bandwidth:Network.Local
        ~msg_bits:(fun _ -> Bits.id_bits n)
        ~init:chaos_init ~round:chaos_wake_everyone
        ~max_rounds:(chaos_budget + 2)
  | `Event ->
      Network.run ?faults g ~bandwidth:Network.Local
        ~msg_bits:(fun _ -> Bits.id_bits n)
        ~init:chaos_init ~round:chaos_round
        ~max_rounds:(chaos_budget + 2)
  | `Sharded (wake_everyone, shards, jobs, boxed) ->
      let exec = Network.Sharded { shards; pool = shard_pool jobs } in
      let round = if wake_everyone then chaos_wake_everyone else chaos_round in
      let msg_bits _ = Bits.id_bits n and max_rounds = chaos_budget + 2 in
      if boxed then
        Network.run ?faults ~exec g ~bandwidth:Network.Local ~msg_bits
          ~init:chaos_init ~round:(boxed_round round) ~max_rounds
      else
        Network.run ?faults ~exec g ~bandwidth:Network.Local ~msg_bits
          ~init:chaos_init ~round ~max_rounds

(* ------------------------------------------------------------------ *)
(* Pinned unit regressions                                             *)
(* ------------------------------------------------------------------ *)

let test_event_halting_round_sends () =
  (* vertex 0 announces and halts in its very first round; the neighbor —
     asleep, with no wake-up of its own — must still be scheduled to
     receive the message in round 2 *)
  let g = Generators.path 2 in
  let got = ref [] in
  let round r (ctx : Network.ctx) () inbox =
    List.iter (fun (s, x) -> got := ((r, ctx.id), (s, x)) :: !got) inbox;
    if ctx.id = 0 then Network.step () ~send:[ (1, 42) ] ~halt:true
    else Network.step () ~halt:(inbox <> [])
  in
  let _, st =
    Network.run g ~bandwidth:Network.Local
      ~msg_bits:(fun _ -> 1)
      ~init:(fun _ -> ())
      ~round ~max_rounds:10
  in
  Alcotest.(check (list (pair (pair int int) (pair int int))))
    "halting-round send delivered"
    [ ((2, 1), (0, 42)) ]
    (List.rev !got);
  checkb "completed" true st.Network.completed;
  check "rounds" 2 st.Network.rounds;
  check "one message" 1 st.Network.messages;
  check "none dropped" 0 st.Network.dropped

let test_event_recover_round_empty_inbox () =
  (* vertex 0 streams to vertex 1 every round; 1 crashes in round 2 and
     recovers in round 4. The round-1 message is wiped by the crash before
     it is read, the rounds-2/3 sends are dropped at the crashed receiver,
     the recovery-round inbox is empty, and delivery resumes in round 5. *)
  let g = Generators.path 2 in
  let faults =
    Faults.make
      ~crashes:[ { Faults.vertex = 1; at_round = 2; recover_round = Some 4 } ]
      ~seed:5 ()
  in
  let seen = ref [] in
  let round r (ctx : Network.ctx) () inbox =
    if ctx.id = 0 then
      if r > 6 then Network.step () ~halt:true
      else Network.step () ~send:[ (1, r) ] ~wake_after:1
    else begin
      List.iter (fun (_, x) -> seen := (r, x) :: !seen) inbox;
      Network.step () ~halt:(r > 6)
    end
  in
  let _, st =
    Network.run g ~faults
      ~bandwidth:Network.Local
      ~msg_bits:(fun _ -> 1)
      ~init:(fun _ -> ())
      ~round ~max_rounds:10
  in
  Alcotest.(check (list (pair int int)))
    "crashed rounds lose traffic; recovery round inbox empty"
    [ (5, 4); (6, 5); (7, 6) ]
    (List.rev !seen);
  (* rounds 2 and 3 sends hit a crashed receiver *)
  check "dropped" 2 st.Network.dropped;
  check "crashed rounds" 2 st.Network.crashed_rounds

let test_event_halted_receiver_drop_accounting () =
  (* vertex 1 halts immediately; vertex 0 keeps sending to it. Every such
     message is counted dropped. *)
  let g = Generators.path 2 in
  let round r (ctx : Network.ctx) () _ =
    if ctx.id = 1 then Network.step () ~halt:true
    else if r > 3 then Network.step () ~halt:true
    else Network.step () ~send:[ (1, r) ] ~wake_after:1
  in
  let _, st =
    Network.run g ~bandwidth:Network.Local
      ~msg_bits:(fun _ -> 1)
      ~init:(fun _ -> ())
      ~round ~max_rounds:10
  in
  check "messages" 3 st.Network.messages;
  (* the round-1 send arrives in round 2, after the receiver halted *)
  check "dropped" 3 st.Network.dropped;
  checkb "completed" true st.Network.completed

let test_wake_after_validation () =
  let g = Generators.path 2 in
  let attempt d =
    ignore
      (Network.run g ~bandwidth:Network.Local
         ~msg_bits:(fun _ -> 1)
         ~init:(fun _ -> ())
         ~round:(fun _ _ () _ -> Network.step () ~wake_after:d)
         ~max_rounds:5)
  in
  (match attempt 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wake_after 0: expected Invalid_argument");
  (match attempt (-3) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wake_after -3: expected Invalid_argument")

(* sleeps (rescheduling its own wake-up, so a recovery step keeps the
   chain alive) until [halt_round], then halts *)
let sleeper_round ~halt_round r _ () _ =
  if r >= halt_round then Network.step () ~halt:true
  else Network.step () ~wake_after:(halt_round - r)

let test_event_fast_forward_accounting () =
  (* everyone sleeps from round 1 to round 50 and halts at 51: the event
     loop fast-forwards over the silent stretch but must report the same
     statistics as the reference, which steps through it. *)
  let g = Generators.path 5 in
  let run how =
    let round = sleeper_round ~halt_round:51 in
    match how with
    | `Reference ->
        Network.run_reference g ~bandwidth:Network.Local
          ~msg_bits:(fun _ -> 1)
          ~init:(fun _ -> ())
          ~round ~max_rounds:100
    | `Event ->
        Network.run g ~bandwidth:Network.Local
          ~msg_bits:(fun _ -> 1)
          ~init:(fun _ -> ())
          ~round ~max_rounds:100
  in
  let _, ref_stats = run `Reference in
  let _, ev_stats = run `Event in
  Alcotest.check stats "fast-forward preserves stats" ref_stats ev_stats;
  check "halts at 51" 51 ev_stats.Network.rounds;
  checkb "completed" true ev_stats.Network.completed

let test_event_fast_forward_stops_at_fault_events () =
  (* a crash in round 7 and recovery in round 30 land inside the silent
     stretch; fast-forwarding must not jump over them, and crashed_rounds
     must count every skipped round of the outage *)
  let g = Generators.path 5 in
  let faults () =
    Faults.make
      ~crashes:[ { Faults.vertex = 2; at_round = 7; recover_round = Some 30 } ]
      ~seed:3 ()
  in
  let round = sleeper_round ~halt_round:51 in
  let _, ref_stats =
    Network.run_reference ~faults:(faults ()) g ~bandwidth:Network.Local
      ~msg_bits:(fun _ -> 1)
      ~init:(fun _ -> ())
      ~round ~max_rounds:100
  in
  let _, ev_stats =
    Network.run ~faults:(faults ()) g
      ~bandwidth:Network.Local
      ~msg_bits:(fun _ -> 1)
      ~init:(fun _ -> ())
      ~round ~max_rounds:100
  in
  Alcotest.check stats "fault events inside a skipped stretch" ref_stats
    ev_stats;
  (* rounds 7..29 inclusive *)
  check "crashed rounds" 23 ev_stats.Network.crashed_rounds

let test_event_permanent_crash_fast_forward () =
  (* a permanently crashed vertex accrues crashed_rounds through the
     fast-forwarded stretch until the run completes *)
  let g = Generators.path 4 in
  let faults () =
    Faults.make
      ~crashes:[ { Faults.vertex = 1; at_round = 3; recover_round = None } ]
      ~seed:9 ()
  in
  let round = sleeper_round ~halt_round:21 in
  let _, ref_stats =
    Network.run_reference ~faults:(faults ()) g ~bandwidth:Network.Local
      ~msg_bits:(fun _ -> 1)
      ~init:(fun _ -> ())
      ~round ~max_rounds:40
  in
  let _, ev_stats =
    Network.run ~faults:(faults ()) g
      ~bandwidth:Network.Local
      ~msg_bits:(fun _ -> 1)
      ~init:(fun _ -> ())
      ~round ~max_rounds:40
  in
  Alcotest.check stats "permanent crash accounting" ref_stats ev_stats;
  checkb "completed without the crashed vertex" true
    ev_stats.Network.completed

let test_event_inbox_ordering () =
  (* the inbox must present messages sender-ascending, preserving
     each sender's list order — including within-round multi-sends *)
  let g = Graph_fixtures.star 4 in
  let seen = ref [] in
  let round r (ctx : Network.ctx) () inbox =
    if ctx.id = 0 then begin
      List.iter (fun (s, x) -> seen := (s, x) :: !seen) inbox;
      Network.step () ~halt:(r > 1)
    end
    else if r = 1 then
      (* leaves fire in reverse id order at the send site *)
      Network.step () ~send:[ (0, ctx.id * 10); (0, (ctx.id * 10) + 1) ]
        ~halt:true
    else Network.step () ~halt:true
  in
  let _, st =
    Network.run g ~bandwidth:Network.Local
      ~msg_bits:(fun _ -> 1)
      ~init:(fun _ -> ())
      ~round ~max_rounds:5
  in
  Alcotest.(check (list (pair int int)))
    "sender-ascending, list order within sender"
    [ (1, 10); (1, 11); (2, 20); (2, 21); (3, 30); (3, 31); (4, 40); (4, 41) ]
    (List.rev !seen);
  check "messages" 8 st.Network.messages

let test_event_skips_sleeping_vertices () =
  (* the point of the scheduler: on a long path where only vertex 0 works
     every round, the event loop must invoke the round function far fewer
     times than the reference *)
  let g = Generators.path 50 in
  let count = ref 0 in
  let round r (ctx : Network.ctx) () _ =
    incr count;
    if ctx.id = 0 then
      if r > 40 then Network.step () ~halt:true
      else Network.step () ~wake_after:1
    else if r > 40 then Network.step () ~halt:true
    else Network.step () ~wake_after:(41 - r)
  in
  let run how =
    count := 0;
    (match how with
    | `Reference ->
        ignore
          (Network.run_reference g ~bandwidth:Network.Local
             ~msg_bits:(fun _ -> 1)
             ~init:(fun _ -> ())
             ~round ~max_rounds:60)
    | `Event ->
        ignore
          (Network.run g
             ~bandwidth:Network.Local
             ~msg_bits:(fun _ -> 1)
             ~init:(fun _ -> ())
             ~round ~max_rounds:60));
    !count
  in
  let ref_calls = run `Reference in
  let ev_calls = run `Event in
  check "reference steps everyone every round" (50 * 41) ref_calls;
  (* event mode: vertex 0 steps 41 times; the other 49 step in round 1
     and in the halt round *)
  check "event mode steps the frontier" (41 + (49 * 2)) ev_calls

(* ------------------------------------------------------------------ *)
(* Wake-vs-crash pins                                                  *)
(* ------------------------------------------------------------------ *)

(* The contract under test: a crash cancels the vertex's pending wake;
   only the recovery step re-arms it. Vertex 1 arms a wake for round 11
   in round 1 and re-aims every later step at round 11, halting there;
   vertex 0 halts immediately. The event log records every round in which
   vertex 1 was stepped (only vertex 1 writes, and the step-phase barrier
   orders the writes, so the log is race-free under the sharded loop). *)
let wake_crash_harness ~crashes how =
  let g = Generators.path 2 in
  let log = ref [] in
  let round r (ctx : Network.ctx) () _ =
    if ctx.id = 0 then
      (* stays alive past every outage so the network can wait for the
         crashed vertex's recovery *)
      if r >= 16 then Network.step () ~halt:true
      else Network.step () ~wake_after:(16 - r)
    else begin
      log := r :: !log;
      if r >= 11 then Network.step () ~halt:true
      else if r = 1 then Network.step () ~wake_after:10
      else Network.step () ~wake_after:(11 - r)
    end
  in
  let faults = Faults.make ~crashes ~seed:21 () in
  let run exec =
    log := [];
    let _, st =
      Network.run g ~faults ?exec ~bandwidth:Network.Local
        ~msg_bits:(fun _ -> 1)
        ~init:(fun _ -> ())
        ~round ~max_rounds:20
    in
    (st, List.rev !log)
  in
  let _, ref_stats =
    Network.run_reference g ~faults ~bandwidth:Network.Local
      ~msg_bits:(fun _ -> 1)
      ~init:(fun _ -> ())
      ~round ~max_rounds:20
  in
  let exec =
    match how with
    | `Event -> None
    | `Sharded ->
        Some (Network.Sharded { shards = 2; pool = shard_pool 4 })
  in
  let st, steps = run exec in
  Alcotest.check stats "stats match reference" ref_stats st;
  steps

let test_crash_before_wake () =
  (* crash lands before the armed round and the outage covers it: the
     round-11 wake is lost; the vertex next steps at recovery (15) and,
     being past round 11, halts there *)
  let crashes =
    [ { Faults.vertex = 1; at_round = 2; recover_round = Some 15 } ]
  in
  List.iter
    (fun how ->
      Alcotest.(check (list int))
        "stepped at 1 and recovery only" [ 1; 15 ]
        (wake_crash_harness ~crashes how))
    [ `Event; `Sharded ]

let test_recover_before_wake () =
  (* recovery lands before the armed round: the recovery step re-arms the
     round-11 wake, which must fire exactly once *)
  let crashes =
    [ { Faults.vertex = 1; at_round = 2; recover_round = Some 3 } ]
  in
  List.iter
    (fun how ->
      Alcotest.(check (list int))
        "one wake after re-arm" [ 1; 3; 11 ]
        (wake_crash_harness ~crashes how))
    [ `Event; `Sharded ]

let test_crash_recover_crash () =
  (* two outages before the armed round: each crash cancels, each
     recovery re-arms, and the wake still fires exactly once *)
  let crashes =
    [
      { Faults.vertex = 1; at_round = 2; recover_round = Some 4 };
      { Faults.vertex = 1; at_round = 6; recover_round = Some 9 };
    ]
  in
  List.iter
    (fun how ->
      Alcotest.(check (list int))
        "wake survives the crash/recover chain" [ 1; 4; 9; 11 ]
        (wake_crash_harness ~crashes how))
    [ `Event; `Sharded ]

let test_fast_forwarded_wake_traffic () =
  (* the only traffic of the run is sent from a fast-forwarded wake: the
     event loop jumps from round 1 to round 11, and the send landing in
     the post-jump round must set last_traffic_round exactly as the
     reference loop does *)
  let g = Generators.path 2 in
  let round r (ctx : Network.ctx) () inbox =
    if ctx.id = 0 then
      if r >= 11 then Network.step () ~send:[ (1, 7) ] ~halt:true
      else Network.step () ~wake_after:(11 - r)
    else Network.step () ~halt:(inbox <> [])
  in
  let _, ref_stats =
    Network.run_reference g ~bandwidth:Network.Local
      ~msg_bits:(fun _ -> 1)
      ~init:(fun _ -> ())
      ~round ~max_rounds:20
  in
  let _, ev_stats =
    Network.run g ~bandwidth:Network.Local
      ~msg_bits:(fun _ -> 1)
      ~init:(fun _ -> ())
      ~round ~max_rounds:20
  in
  let _, sh_stats =
    Network.run g
      ~exec:(Network.Sharded { shards = 2; pool = shard_pool 4 })
      ~bandwidth:Network.Local
      ~msg_bits:(fun _ -> 1)
      ~init:(fun _ -> ())
      ~round ~max_rounds:20
  in
  check "last_traffic_round" 11 ref_stats.Network.last_traffic_round;
  Alcotest.check stats "event matches" ref_stats ev_stats;
  Alcotest.check stats "sharded matches" ref_stats sh_stats

(* ------------------------------------------------------------------ *)
(* Inbox footprint                                                     *)
(* ------------------------------------------------------------------ *)

(* burst-then-trickle-then-quiescent: round 1 floods the star center
   (growing its shard's arena past the 64-slot shrink threshold), then a
   single leaf trickles one message per round. The high-watermark shrink
   must release the burst — pinned through the net.inbox_*_words meters.
   With [late_burst] the center also messages every leaf in the upper
   half of the id range in round 6; at two shards that second burst lands
   in the other shard's arena, long after the first one drained. *)
let inbox_shrink_harness ?(late_burst = false) shards =
  let leaves = 100 in
  let g = Graph_fixtures.star leaves in
  let round r (ctx : Network.ctx) _ _ =
    if r >= 12 then Network.step 0 ~halt:true
    else if ctx.id = 0 then
      let send =
        if late_burst && r = 6 then
          List.filter_map
            (fun w -> if w > leaves / 2 then Some (w, r) else None)
            (Array.to_list ctx.neighbors)
        else []
      in
      Network.step 0 ~send ~wake_after:1
    else if r = 1 then Network.step 0 ~send:[ (0, ctx.id) ] ~wake_after:1
    else if ctx.id = 1 then Network.step 0 ~send:[ (0, r) ] ~wake_after:1
    else Network.step 0 ~wake_after:(12 - r)
  in
  Obs.reset ();
  Obs.enable ();
  Obs.Span.with_ "net" (fun () ->
      ignore
        (Network.run g
           ~exec:(Network.Sharded { shards; pool = shard_pool 4 })
           ~bandwidth:Network.Local
           ~msg_bits:(fun _ -> 1)
           ~init:(fun _ -> 0)
           ~round ~max_rounds:20));
  let tree = Obs.snapshot_tree () in
  Obs.disable ();
  match Obs.Agg.find_path tree [ "net" ] with
  | None -> Alcotest.fail "no span recorded"
  | Some node ->
      let max_of key =
        match Obs.Agg.SMap.find_opt key node.Obs.Agg.maxes with
        | Some v -> v
        | None -> 0
      in
      (max_of Obs.Meter.k_inbox_peak_words,
       max_of Obs.Meter.k_inbox_final_words)

let test_inbox_shrinks_after_burst () =
  List.iter
    (fun shards ->
      let peak, final = inbox_shrink_harness shards in
      (* the burst put >= 100 three-word arena slots in the center's shard *)
      checkb "peak reflects the burst" true (peak >= 300);
      checkb "arena shrank to <= peak/2" true (final <= peak / 2))
    [ 1; 4 ];
  (* the meter reports the largest all-shard footprint of any one round:
     with the two bursts in different shards and rounds that is the
     one-shard peak, not the sum of each shard's own maximum *)
  let one, _ = inbox_shrink_harness ~late_burst:true 1 in
  let two, _ = inbox_shrink_harness ~late_burst:true 2 in
  check "two-shard peak = one-shard peak" one two

(* ------------------------------------------------------------------ *)
(* qcheck equivalence properties                                       *)
(* ------------------------------------------------------------------ *)

let graph_gen =
  let open QCheck.Gen in
  oneof
    [
      (int_range 3 30 >>= fun n -> return (Printf.sprintf "path(%d)" n, Generators.path n));
      (int_range 2 5 >>= fun rc ->
       int_range 2 5 >>= fun cc ->
       return (Printf.sprintf "grid(%d,%d)" rc cc, Generators.grid rc cc));
      (int_range 4 30 >>= fun n ->
       int_range 0 1000 >>= fun seed ->
       return
         (Printf.sprintf "tree(%d,%d)" n seed, Generators.random_tree n ~seed));
      (int_range 4 30 >>= fun n ->
       int_range 0 1000 >>= fun seed ->
       return
         (Printf.sprintf "apollonian(%d,%d)" n seed,
          Generators.random_apollonian n ~seed));
    ]

let fault_gen =
  let open QCheck.Gen in
  graph_gen >>= fun (name, g) ->
  let n = Graph.n g in
  int_range 0 10_000 >>= fun seed ->
  oneofl [ 0.; 0.1; 0.3 ] >>= fun drop ->
  oneofl [ 0.; 0.1 ] >>= fun dup ->
  int_range 0 (n - 1) >>= fun cv ->
  int_range 2 (chaos_budget - 4) >>= fun cr ->
  oneofl [ None; Some 2; Some 6 ] >>= fun rec_delta ->
  bool >>= fun with_crash ->
  bool >>= fun with_outage ->
  let crashes =
    if with_crash then
      [ { Faults.vertex = cv;
          at_round = cr;
          recover_round = Option.map (fun d -> cr + d) rec_delta } ]
    else []
  in
  let outages =
    if with_outage && n >= 2 then
      [ { Faults.u = 0; v = 1; from_round = 2; until_round = 6 } ]
    else []
  in
  let faults =
    Faults.make ~drop_rate:drop ~duplicate_rate:dup ~crashes ~outages ~seed ()
  in
  return
    ( Printf.sprintf "%s seed=%d drop=%.1f dup=%.1f crash=%b outage=%b" name
        seed drop dup with_crash with_outage,
      g, faults )

let graph_arb = QCheck.make ~print:fst graph_gen
let fault_arb = QCheck.make ~print:(fun (name, _, _) -> name) fault_gen

let equiv_fault_free =
  QCheck.Test.make ~name:"event = reference (fault-free)" ~count:60 graph_arb
    (fun (_, g) ->
      let s_ref, st_ref = run_chaos ~how:`Reference g in
      let s_ev, st_ev = run_chaos ~how:`Event g in
      s_ref = s_ev && st_ref = st_ev)

(* the chaos algorithm with every vertex woken every round: the shape of
   the round-clock protocols (leader election, orientation, the diameter
   check, the reliable transports) *)
let equiv_every_round =
  QCheck.Test.make ~name:"run Every_round = reference (faulty)" ~count:40
    fault_arb (fun (_, g, faults) ->
      let s_ref, st_ref = run_chaos ~faults ~how:`Reference g in
      let s_er, st_er = run_chaos ~faults ~how:`Wake_everyone g in
      s_ref = s_er && st_ref = st_er)

let equiv_under_faults =
  QCheck.Test.make ~name:"event = reference (fixed fault seed)" ~count:60
    fault_arb (fun (_, g, faults) ->
      let s_ref, st_ref = run_chaos ~faults ~how:`Reference g in
      let s_ev, st_ev = run_chaos ~faults ~how:`Event g in
      s_ref = s_ev && st_ref = st_ev)

let equiv_across_pool_sizes =
  (* scheduling is per-run state: packing event-driven runs into worker
     pools of different sizes must not change any outcome *)
  let pool1 = lazy (Parallel.Pool.create ~jobs:1 ()) in
  let pool4 = lazy (Parallel.Pool.create ~jobs:4 ()) in
  QCheck.Test.make ~name:"event run: jobs 1 = jobs 4" ~count:15 fault_arb
    (fun (_, g, faults) ->
      let task seed =
        let faults =
          Faults.make ~drop_rate:faults.Faults.drop_rate
            ~duplicate_rate:faults.Faults.duplicate_rate
            ~crashes:faults.Faults.crashes ~outages:faults.Faults.outages
            ~seed ()
        in
        run_chaos ~faults ~how:`Event g
      in
      let seeds = List.init 3 (fun i -> Parallel.Pool.derive_seed 77 i) in
      Parallel.Pool.map_list (Lazy.force pool1) task seeds
      = Parallel.Pool.map_list (Lazy.force pool4) task seeds)

(* shard-grid configurations: shard counts around and above the vertex
   counts the graph generator produces, both pool sizes, and messages as
   plain ints or boxed values *)
let sharded_conf_gen =
  let open QCheck.Gen in
  oneofl [ 1; 2; 3; 5 ] >>= fun shards ->
  oneofl [ 1; 4 ] >>= fun jobs ->
  bool >>= fun boxed -> return (shards, jobs, boxed)

let sharded_arb =
  QCheck.make
    ~print:(fun ((name, _), (shards, jobs, boxed)) ->
      Printf.sprintf "%s shards=%d jobs=%d boxed=%b" name shards jobs boxed)
    QCheck.Gen.(pair graph_gen sharded_conf_gen)

let sharded_fault_arb =
  QCheck.make
    ~print:(fun ((name, _, _), (shards, jobs, boxed)) ->
      Printf.sprintf "%s shards=%d jobs=%d boxed=%b" name shards jobs boxed)
    QCheck.Gen.(pair fault_gen sharded_conf_gen)

let equiv_sharded_fault_free =
  QCheck.Test.make ~name:"sharded = reference (fault-free)" ~count:40
    sharded_arb (fun ((_, g), (shards, jobs, boxed)) ->
      let s_ref, st_ref = run_chaos ~how:`Reference g in
      let s_sh, st_sh =
        run_chaos ~how:(`Sharded (false, shards, jobs, boxed)) g
      in
      s_ref = s_sh && st_ref = st_sh)

let equiv_sharded_under_faults =
  QCheck.Test.make ~name:"sharded = reference (fixed fault seed)" ~count:40
    sharded_fault_arb (fun ((_, g, faults), (shards, jobs, boxed)) ->
      let s_ref, st_ref = run_chaos ~faults ~how:`Reference g in
      let s_sh, st_sh =
        run_chaos ~faults
          ~how:(`Sharded (false, shards, jobs, boxed))
          g
      in
      s_ref = s_sh && st_ref = st_sh)

let equiv_sharded_every_round =
  QCheck.Test.make ~name:"sharded Every_round = reference (faulty)" ~count:20
    sharded_fault_arb (fun ((_, g, faults), (shards, jobs, boxed)) ->
      let s_ref, st_ref = run_chaos ~faults ~how:`Reference g in
      let s_sh, st_sh =
        run_chaos ~faults
          ~how:(`Sharded (true, shards, jobs, boxed))
          g
      in
      s_ref = s_sh && st_ref = st_sh)

(* Vertex v and its mirror n-1-v share an edge, and a token bounces
   between them. The exchange walks senders in ascending order, so from
   round 2 on each shard's worklist arrives strictly descending: n/2
   receivers spread over 16 bitset words of a 1 000-vertex range, or
   over several shards. Every such round is ordered through the worklist
   bitset, across word boundaries. Drops and duplicates draw from the
   fault RNG in step order, so a misordered worklist changes the final
   states or statistics. *)
let test_worklist_order_unsorted_multiword () =
  let n = 1000 in
  let g = Graph.of_edges n (List.init (n / 2) (fun v -> (v, n - 1 - v))) in
  let round r (ctx : Network.ctx) st inbox =
    let v = ctx.id in
    let st =
      List.fold_left
        (fun a (s, x) -> ((a * 31) + (s * 7) + x + r) mod 1_000_003)
        st inbox
    in
    let tokens = if r = 1 && v < n / 2 then [ 0 ] else List.map snd inbox in
    let send =
      List.filter_map (fun x -> if x < 40 then Some (n - 1 - v, x + 1) else None)
        tokens
    in
    Network.step st ~send
  in
  let faults () = Faults.make ~drop_rate:0.05 ~duplicate_rate:0.05 ~seed:7 () in
  let run_with exec =
    let f = faults () in
    match exec with
    | None ->
        Network.run_reference ~faults:f g ~bandwidth:Network.Local
          ~msg_bits:(fun _ -> 1) ~init:(fun _ -> 0) ~round ~max_rounds:100
    | Some exec ->
        Network.run ~faults:f ~exec g ~bandwidth:Network.Local
          ~msg_bits:(fun _ -> 1) ~init:(fun _ -> 0) ~round ~max_rounds:100
  in
  let ref_states, ref_stats = run_with None in
  checkb "tokens bounced" true (ref_stats.Network.last_traffic_round > 30);
  List.iter
    (fun shards ->
      let states, st =
        run_with (Some (Network.Sharded { shards; pool = shard_pool 1 }))
      in
      Alcotest.check stats
        (Printf.sprintf "stats at %d shards" shards)
        ref_stats st;
      checkb (Printf.sprintf "states at %d shards" shards) true
        (states = ref_states))
    [ 1; 3 ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "scheduler"
    [
      ( "event mode",
        [
          tc "halting-round sends" test_event_halting_round_sends;
          tc "recover-round empty inbox" test_event_recover_round_empty_inbox;
          tc "halted receiver drop accounting"
            test_event_halted_receiver_drop_accounting;
          tc "wake_after validation" test_wake_after_validation;
          tc "fast-forward accounting" test_event_fast_forward_accounting;
          tc "fast-forward stops at fault events"
            test_event_fast_forward_stops_at_fault_events;
          tc "permanent crash fast-forward"
            test_event_permanent_crash_fast_forward;
          tc "inbox ordering" test_event_inbox_ordering;
          tc "skips sleeping vertices" test_event_skips_sleeping_vertices;
          tc "worklist order, unsorted multi-word rounds"
            test_worklist_order_unsorted_multiword;
        ] );
      ( "wake vs crash",
        [
          tc "crash before wake" test_crash_before_wake;
          tc "recover before wake" test_recover_before_wake;
          tc "crash-recover-crash" test_crash_recover_crash;
          tc "fast-forwarded wake traffic" test_fast_forwarded_wake_traffic;
        ] );
      ( "inbox footprint",
        [ tc "shrinks after a burst" test_inbox_shrinks_after_burst ] );
      ( "equivalence",
        [
          qt equiv_fault_free;
          qt equiv_every_round;
          qt equiv_under_faults;
          qt equiv_across_pool_sizes;
        ] );
      ( "sharded equivalence",
        [
          qt equiv_sharded_fault_free;
          qt equiv_sharded_under_faults;
          qt equiv_sharded_every_round;
        ] );
    ]
