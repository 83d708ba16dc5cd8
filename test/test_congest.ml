open Sparse_graph
open Congest

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* simple flooding: everyone learns the max id; counts rounds *)
let flood_max g rounds_budget =
  let init (ctx : Network.ctx) = ctx.id in
  let round r (ctx : Network.ctx) best inbox =
    let best = List.fold_left (fun b (_, x) -> max b x) best inbox in
    if r > rounds_budget then { Network.wake_after = Some 1; state = best; send = []; halt = true }
    else
      {
        Network.wake_after = Some 1;
        state = best;
        send = Array.to_list (Array.map (fun w -> (w, best)) ctx.neighbors);
        halt = false;
      }
  in
  Network.run g
    ~bandwidth:(Network.congest_bandwidth (Graph.n g))
    ~msg_bits:(fun _ -> Bits.words (Graph.n g) 1)
    ~init ~round ~max_rounds:(rounds_budget + 1)

let test_flood_path () =
  let g = Generators.path 6 in
  let states, stats = flood_max g 5 in
  Array.iter (fun s -> check "all know max" 5 s) states;
  checkb "completed" true stats.Network.completed;
  check "rounds" 6 stats.Network.rounds

let test_flood_insufficient_rounds () =
  let g = Generators.path 6 in
  let states, _ = flood_max g 2 in
  (* vertex 0 is 5 hops from vertex 5: cannot know it after 2 rounds *)
  checkb "vertex 0 not yet informed" true (states.(0) < 5)

let test_synchronous_delivery () =
  (* messages sent in round r arrive exactly in round r + 1 *)
  let g = Generators.path 2 in
  let log = ref [] in
  let init (ctx : Network.ctx) = ctx.id in
  let round r (ctx : Network.ctx) st inbox =
    List.iter (fun (s, x) -> log := (r, ctx.id, s, x) :: !log) inbox;
    if r >= 3 then { Network.wake_after = Some 1; state = st; send = []; halt = true }
    else
      { Network.wake_after = Some 1; state = st;
        send = (if ctx.id = 0 then [ (1, 100 + r) ] else []);
        halt = false }
  in
  let _ =
    Network.run g ~bandwidth:Network.Local
      ~msg_bits:(fun _ -> 1)
      ~init ~round ~max_rounds:5
  in
  let received = List.rev !log in
  Alcotest.(check (list (pair int (pair int (pair int int)))))
    "delivery schedule"
    [ (2, (1, (0, 101))); (3, (1, (0, 102))) ]
    (List.map (fun (r, v, s, x) -> (r, (v, (s, x)))) received)

let test_congestion_enforced () =
  let g = Generators.path 2 in
  let init _ = () in
  let round _ (ctx : Network.ctx) () _ =
    { Network.wake_after = Some 1; state = ();
      send = (if ctx.id = 0 then [ (1, ()) ] else []);
      halt = false }
  in
  let run () =
    ignore
      (Network.run g ~bandwidth:(Network.Congest 8)
         ~msg_bits:(fun () -> 9)
         ~init ~round ~max_rounds:2)
  in
  (match run () with
  | exception Network.Congestion_violation { bits = 9; budget = 8; _ } -> ()
  | exception _ -> Alcotest.fail "wrong exception"
  | () -> Alcotest.fail "violation not detected")

let test_congestion_accumulates () =
  (* two messages of 5 bits on one edge in one round exceed an 8-bit budget *)
  let g = Generators.path 2 in
  let init _ = () in
  let round _ (ctx : Network.ctx) () _ =
    { Network.wake_after = Some 1; state = ();
      send = (if ctx.id = 0 then [ (1, ()); (1, ()) ] else []);
      halt = false }
  in
  (match
     Network.run g ~bandwidth:(Network.Congest 8)
       ~msg_bits:(fun () -> 5)
       ~init ~round ~max_rounds:2
   with
  | exception Network.Congestion_violation { bits = 10; _ } -> ()
  | exception _ -> Alcotest.fail "wrong exception"
  | _ -> Alcotest.fail "violation not detected")

let test_local_mode_unbounded () =
  let g = Generators.path 2 in
  let init _ = () in
  let round r (ctx : Network.ctx) () _ =
    if r > 1 then { Network.wake_after = Some 1; state = (); send = []; halt = true }
    else
      { Network.wake_after = Some 1; state = ();
        send = (if ctx.id = 0 then [ (1, ()) ] else []);
        halt = false }
  in
  let _, stats =
    Network.run g ~bandwidth:Network.Local
      ~msg_bits:(fun () -> 1_000_000)
      ~init ~round ~max_rounds:3
  in
  check "big message went through" 1_000_000 stats.Network.max_edge_bits

let test_send_to_non_neighbor_rejected () =
  let g = Generators.path 3 in
  let init _ = () in
  let round _ (ctx : Network.ctx) () _ =
    { Network.wake_after = Some 1; state = ();
      send = (if ctx.id = 0 then [ (2, ()) ] else []);
      halt = false }
  in
  (match
     Network.run g ~bandwidth:Network.Local
       ~msg_bits:(fun () -> 1)
       ~init ~round ~max_rounds:2
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument")

let test_halted_vertices_drop_messages () =
  let g = Generators.path 2 in
  let got = ref 0 in
  let init _ = () in
  let round r (ctx : Network.ctx) () inbox =
    if ctx.id = 1 then { Network.wake_after = Some 1; state = (); send = []; halt = true }
    else begin
      got := !got + List.length inbox;
      if r >= 3 then { Network.wake_after = Some 1; state = (); send = []; halt = true }
      else { Network.wake_after = Some 1; state = (); send = [ (1, ()) ]; halt = false }
    end
  in
  let _, stats =
    Network.run g ~bandwidth:Network.Local
      ~msg_bits:(fun () -> 1)
      ~init ~round ~max_rounds:5
  in
  check "vertex 0 received nothing" 0 !got;
  checkb "completed" true stats.Network.completed

(* Regression: the seed simulator silently discarded messages addressed
   to a vertex that halted in the same round — they were counted as sent
   but never as lost, so no accounting identity held. They now land in
   [stats.dropped] and [delivered + dropped = messages] is an invariant. *)
let test_halted_destination_drops_counted () =
  let g = Generators.path 2 in
  let init _ = () in
  let round r (ctx : Network.ctx) () _ =
    if ctx.id = 1 then { Network.wake_after = Some 1; state = (); send = []; halt = true }
    else
      { Network.wake_after = Some 1; state = ();
        send = [ (1, ()) ];
        halt = r >= 3 }
  in
  let _, stats =
    Network.run g ~bandwidth:Network.Local
      ~msg_bits:(fun () -> 1)
      ~init ~round ~max_rounds:5
  in
  (* vertex 1 halts in round 1; all three sends (including the round-1
     send, in flight while the destination halted) are charged and lost *)
  check "messages charged" 3 stats.Network.messages;
  check "all counted as dropped" 3 stats.Network.dropped;
  check "nothing delivered" 0 (Network.delivered stats);
  check "invariant" stats.Network.messages
    (Network.delivered stats + stats.Network.dropped);
  check "no fault layer involved" 0 stats.Network.duplicated;
  check "no crashes" 0 stats.Network.crashed_rounds

let test_stats_accounting () =
  let g = Generators.cycle 4 in
  let init _ = () in
  let round r (ctx : Network.ctx) () _ =
    if r > 2 then { Network.wake_after = Some 1; state = (); send = []; halt = true }
    else
      { Network.wake_after = Some 1; state = ();
        send = Array.to_list (Array.map (fun w -> (w, ())) ctx.neighbors);
        halt = false }
  in
  let _, stats =
    Network.run g ~bandwidth:Network.Local
      ~msg_bits:(fun () -> 3)
      ~init ~round ~max_rounds:4
  in
  (* 4 vertices x 2 neighbors x 2 rounds *)
  check "messages" 16 stats.Network.messages;
  check "bits" 48 stats.Network.total_bits;
  check "max edge bits" 3 stats.Network.max_edge_bits;
  check "last traffic" 2 stats.Network.last_traffic_round

let test_bandwidth_helper () =
  (match Network.congest_bandwidth 1024 with
  | Network.Congest b -> check "8 * log2 1024" 80 b
  | Network.Local -> Alcotest.fail "expected Congest");
  (match Network.congest_bandwidth ~c:1 2 with
  | Network.Congest b -> check "minimum one word" 1 b
  | Network.Local -> Alcotest.fail "expected Congest")

(* Regression: the budget at exact powers of two must be c * log2 n, with
   no float rounding drift. The FP formula ceil(log n / log 2) overshoots
   at n = 2^29 (log2 returns 29.000000000000004), granting one extra word
   of bandwidth per edge. *)
let test_bandwidth_powers_of_two () =
  let expect n bits =
    match Network.congest_bandwidth ~c:8 n with
    | Network.Congest b ->
        check (Printf.sprintf "budget at n = %d" n) (8 * bits) b
    | Network.Local -> Alcotest.fail "expected Congest"
  in
  expect 2 1;
  expect 1024 10;
  expect 4096 12;
  expect 65536 16;
  expect (1 lsl 29) 29;
  (* off-by-one neighborhoods of a power of two *)
  expect 1023 10;
  expect 1025 11;
  expect ((1 lsl 29) - 1) 29;
  expect ((1 lsl 29) + 1) 30

(* Regression: a vertex's sends in its halting round must still be
   delivered. The seed simulator assigned [outgoing] only on the
   non-halting branch, silently discarding the final message; a two-node
   protocol in which node 0 announces a value and halts immediately would
   leave node 1 uninformed forever. *)
let test_halting_round_sends_delivered () =
  let g = Generators.path 2 in
  let init _ = -1 in
  let round r (ctx : Network.ctx) st inbox =
    if ctx.id = 0 then
      (* announce 42 and halt in the same round *)
      { Network.wake_after = Some 1; state = 42; send = [ (1, 42) ]; halt = true }
    else
      let st = List.fold_left (fun acc (_, x) -> max acc x) st inbox in
      if st >= 0 || r >= 3 then { Network.wake_after = Some 1; state = st; send = []; halt = true }
      else { Network.wake_after = Some 1; state = st; send = []; halt = false }
  in
  let states, stats =
    Network.run g ~bandwidth:Network.Local
      ~msg_bits:(fun _ -> 6)
      ~init ~round ~max_rounds:5
  in
  check "node 1 heard the announcement" 42 states.(1);
  checkb "completed" true stats.Network.completed;
  (* the halting-round traffic is still accounted *)
  check "message counted" 1 stats.Network.messages

let test_bits_helper () =
  check "id bits of 1024" 10 (Bits.id_bits 1024);
  check "id bits of 1025" 11 (Bits.id_bits 1025);
  check "id bits small" 1 (Bits.id_bits 1);
  check "words" 30 (Bits.words 1024 3)

let test_empty_graph_run () =
  let _, stats =
    Network.run (Graph.empty 3) ~bandwidth:Network.Local
      ~msg_bits:(fun () -> 1)
      ~init:(fun _ -> ())
      ~round:(fun _ _ () _ -> { Network.wake_after = Some 1; state = (); send = []; halt = true })
      ~max_rounds:3
  in
  checkb "completed" true stats.Network.completed;
  check "one round" 1 stats.Network.rounds

(* ------------------------------------------------------------------ *)
(* Hand-computed accounting, asserted directly and via the obs meter    *)
(* ------------------------------------------------------------------ *)

(* run [f] inside an enabled, freshly reset Obs span and return its
   result together with the span's aggregate node *)
let with_meter f =
  Obs.reset ();
  Obs.enable ();
  let r = Obs.Span.with_ "net" f in
  let tree = Obs.snapshot_tree () in
  Obs.disable ();
  match Obs.Agg.find_path tree [ "net" ] with
  | Some node -> (r, node)
  | None -> Alcotest.fail "meter recorded no span"

let metered (node : Obs.Agg.node) key =
  match Obs.Agg.SMap.find_opt key node.Obs.Agg.sums with
  | Some v -> v
  | None -> 0

(* the meter must agree with the directly returned stats, field by field *)
let assert_meter_agrees (node : Obs.Agg.node) (stats : Network.stats) =
  check "meter: one run" 1 (metered node Obs.Meter.k_runs);
  check "meter: rounds" stats.Network.rounds (metered node Obs.Meter.k_rounds);
  check "meter: messages" stats.Network.messages
    (metered node Obs.Meter.k_messages);
  check "meter: bits" stats.Network.total_bits (metered node Obs.Meter.k_bits);
  check "meter: max edge bits" stats.Network.max_edge_bits
    (match Obs.Agg.SMap.find_opt Obs.Meter.k_max_edge_bits node.Obs.Agg.maxes with
    | Some v -> v
    | None -> 0)

let test_broadcast_accounting_hand_computed () =
  (* path 0-1-2-3, broadcast from vertex 0. A vertex that is informed at
     the start of a round forwards to all neighbors and halts; its final
     sends still go out (the PR-1 halting-round semantics). By hand:
       round 1: 0 sends to {1}            -> 1 message
       round 2: 1 sends to {0,2}          -> 2 messages (0 halted: dropped)
       round 3: 2 sends to {1,3}          -> 2 messages
       round 4: 3 sends to {2}, all halted -> 1 message
     rounds 4, messages 6, each 5 bits, max one message per directed
     edge per round, last traffic in round 4. *)
  let g = Generators.path 4 in
  let msg_bits = 5 in
  let init (ctx : Network.ctx) = ctx.id = 0 in
  let round _ (ctx : Network.ctx) informed inbox =
    let informed = informed || inbox <> [] in
    if informed then
      {
        Network.wake_after = Some 1;
        state = true;
        send = Array.to_list (Array.map (fun w -> (w, ())) ctx.neighbors);
        halt = true;
      }
    else { Network.wake_after = Some 1; state = false; send = []; halt = false }
  in
  let (states, stats), node =
    with_meter (fun () ->
        Network.run g ~bandwidth:(Network.Congest msg_bits)
          ~msg_bits:(fun () -> msg_bits)
          ~init ~round ~max_rounds:10)
  in
  Array.iter (fun s -> checkb "everyone informed" true s) states;
  check "rounds" 4 stats.Network.rounds;
  check "messages" 6 stats.Network.messages;
  check "total bits" (6 * msg_bits) stats.Network.total_bits;
  check "max edge bits" msg_bits stats.Network.max_edge_bits;
  checkb "completed" true stats.Network.completed;
  check "last traffic round" 4 stats.Network.last_traffic_round;
  assert_meter_agrees node stats

let test_halting_round_accounting () =
  (* vertex 0 sends in the same round it halts; the message is delivered
     to vertex 1 in round 2 and must be counted exactly once *)
  let g = Generators.path 2 in
  let init _ = false in
  let round _ (ctx : Network.ctx) got inbox =
    if ctx.id = 0 then
      { Network.wake_after = Some 1; state = got; send = [ (1, 99) ]; halt = true }
    else
      let got = got || List.exists (fun (_, x) -> x = 99) inbox in
      { Network.wake_after = Some 1; state = got; send = []; halt = got }
  in
  let (states, stats), node =
    with_meter (fun () ->
        Network.run g ~bandwidth:Network.Local
          ~msg_bits:(fun _ -> 7)
          ~init ~round ~max_rounds:5)
  in
  checkb "final send delivered" true states.(1);
  check "rounds" 2 stats.Network.rounds;
  check "one message" 1 stats.Network.messages;
  check "bits" 7 stats.Network.total_bits;
  check "max edge bits" 7 stats.Network.max_edge_bits;
  checkb "completed" true stats.Network.completed;
  check "last traffic round" 1 stats.Network.last_traffic_round;
  assert_meter_agrees node stats

let test_meter_silent_when_disabled () =
  Obs.reset ();
  Obs.disable ();
  let g = Generators.path 2 in
  let _ =
    Network.run g ~bandwidth:Network.Local
      ~msg_bits:(fun _ -> 1)
      ~init:(fun _ -> ())
      ~round:(fun _ _ () _ -> { Network.wake_after = Some 1; state = (); send = []; halt = true })
      ~max_rounds:2
  in
  let tree = Obs.snapshot_tree () in
  checkb "nothing recorded" true (Obs.Agg.SMap.is_empty tree.Obs.Agg.sums)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "congest"
    [
      ( "network",
        [
          tc "flooding reaches everyone" test_flood_path;
          tc "insufficient rounds" test_flood_insufficient_rounds;
          tc "synchronous delivery schedule" test_synchronous_delivery;
          tc "congestion enforced" test_congestion_enforced;
          tc "congestion accumulates per edge" test_congestion_accumulates;
          tc "LOCAL mode unbounded" test_local_mode_unbounded;
          tc "non-neighbor send rejected" test_send_to_non_neighbor_rejected;
          tc "halted vertices drop input" test_halted_vertices_drop_messages;
          tc "halted-destination drops counted"
            test_halted_destination_drops_counted;
          tc "statistics accounting" test_stats_accounting;
          tc "bandwidth helper" test_bandwidth_helper;
          tc "bandwidth at powers of two" test_bandwidth_powers_of_two;
          tc "halting-round sends delivered" test_halting_round_sends_delivered;
          tc "bit accounting helper" test_bits_helper;
          tc "degenerate empty graph" test_empty_graph_run;
        ] );
      ( "accounting",
        [
          tc "hand-computed broadcast, stats and meter"
            test_broadcast_accounting_hand_computed;
          tc "halting-round sends counted once" test_halting_round_accounting;
          tc "meter silent when disabled" test_meter_silent_when_disabled;
        ] );
    ]
