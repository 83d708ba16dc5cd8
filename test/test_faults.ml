(* Fault-injection layer tests: the Faults spec, deterministic fault
   semantics in Network.run (drops, duplication, crash / crash-recover,
   link outages), the Reliable ack/retry/backoff transport, and the
   retry-hardened primitives. The qcheck suites pin the PR's contracts:
   same fault seed => identical runs at every pool size; drop rate 0 =>
   byte-identical to a faultless run; retry-hardened broadcast / BFS /
   election complete at drop rates up to 0.2. *)

open Sparse_graph
open Congest

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Faults spec                                                          *)
(* ------------------------------------------------------------------ *)

let test_make_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  in
  expect_invalid "drop_rate > 1" (fun () ->
      Faults.make ~drop_rate:1.5 ~seed:1 ());
  expect_invalid "drop_rate < 0" (fun () ->
      Faults.make ~drop_rate:(-0.1) ~seed:1 ());
  expect_invalid "duplicate_rate > 1" (fun () ->
      Faults.make ~duplicate_rate:2. ~seed:1 ());
  expect_invalid "crash round 0" (fun () ->
      Faults.make
        ~crashes:[ { Faults.vertex = 0; at_round = 0; recover_round = None } ]
        ~seed:1 ());
  expect_invalid "recover before crash" (fun () ->
      Faults.make
        ~crashes:[ { Faults.vertex = 0; at_round = 3; recover_round = Some 3 } ]
        ~seed:1 ());
  expect_invalid "outage interval reversed" (fun () ->
      Faults.make
        ~outages:[ { Faults.u = 0; v = 1; from_round = 5; until_round = 4 } ]
        ~seed:1 ());
  expect_invalid "outage self-loop" (fun () ->
      Faults.make
        ~outages:[ { Faults.u = 2; v = 2; from_round = 1; until_round = 1 } ]
        ~seed:1 ());
  (* a well-formed spec goes through *)
  ignore
    (Faults.make ~drop_rate:0.2 ~duplicate_rate:0.05
       ~crashes:[ { Faults.vertex = 1; at_round = 2; recover_round = Some 4 } ]
       ~outages:[ { Faults.u = 0; v = 1; from_round = 1; until_round = 2 } ]
       ~seed:7 ())

let test_is_active () =
  checkb "none inactive" false (Faults.is_active Faults.none);
  checkb "defaults inactive" false (Faults.is_active (Faults.make ~seed:3 ()));
  checkb "drop active" true
    (Faults.is_active (Faults.make ~drop_rate:0.1 ~seed:3 ()));
  checkb "crash active" true
    (Faults.is_active
       (Faults.make
          ~crashes:[ { Faults.vertex = 0; at_round = 1; recover_round = None } ]
          ~seed:3 ()))

let test_rng_deterministic () =
  let spec = Faults.make ~drop_rate:0.5 ~seed:99 () in
  let draw st = List.init 8 (fun _ -> Random.State.float st 1.) in
  Alcotest.(check (list (float 0.)))
    "identical streams from the same spec"
    (draw (Faults.rng spec))
    (draw (Faults.rng spec));
  let other = Faults.make ~drop_rate:0.5 ~seed:100 () in
  checkb "distinct seeds give distinct streams" false
    (draw (Faults.rng spec) = draw (Faults.rng other))

(* ------------------------------------------------------------------ *)
(* Network.run fault semantics on hand-built instances                  *)
(* ------------------------------------------------------------------ *)

(* vertex 0 sends [x] to every neighbor each round until [last], halting
   at [last]; everyone else counts receptions and halts at [last] *)
let sender_protocol ?faults g ~last =
  let received = Array.make (Graph.n g) 0 in
  let init _ = () in
  let round r (ctx : Network.ctx) () inbox =
    received.(ctx.id) <- received.(ctx.id) + List.length inbox;
    let send =
      if ctx.id = 0 && r <= last then
        Array.to_list (Array.map (fun w -> (w, r)) ctx.neighbors)
      else []
    in
    { Network.wake_after = Some 1; state = (); send; halt = r > last }
  in
  let _, stats =
    Network.run ?faults g ~bandwidth:Network.Local
      ~msg_bits:(fun _ -> 4)
      ~init ~round ~max_rounds:(last + 2)
  in
  (received, stats)

let test_drop_everything () =
  let g = Generators.path 2 in
  let faults = Faults.make ~drop_rate:1.0 ~seed:5 () in
  let received, stats = sender_protocol ~faults g ~last:4 in
  check "nothing received" 0 received.(1);
  check "messages still charged" 4 stats.Network.messages;
  check "all dropped" 4 stats.Network.dropped;
  check "invariant" stats.Network.messages
    (received.(0) + received.(1) + stats.Network.dropped)

let test_duplicate_everything () =
  let g = Generators.path 2 in
  let faults = Faults.make ~duplicate_rate:1.0 ~seed:5 () in
  let received, stats = sender_protocol ~faults g ~last:3 in
  (* every delivery arrives twice: 3 sends -> 6 receptions *)
  check "double receptions" 6 received.(1);
  check "messages" 3 stats.Network.messages;
  check "dropped" 0 stats.Network.dropped;
  check "duplicated" 3 stats.Network.duplicated

let test_crash_permanent () =
  (* path 0-1-2: crashing the middle vertex cuts the flood and must not
     block completion *)
  let g = Generators.path 3 in
  let faults =
    Faults.make
      ~crashes:[ { Faults.vertex = 1; at_round = 1; recover_round = None } ]
      ~seed:5 ()
  in
  let received, stats = sender_protocol ~faults g ~last:3 in
  check "crashed vertex saw nothing" 0 received.(1);
  check "far vertex saw nothing" 0 received.(2);
  check "sends to the crashed vertex dropped" 3 stats.Network.dropped;
  checkb "permanently crashed vertex does not block completion" true
    stats.Network.completed;
  (* rounds 1..4, vertex 1 crashed throughout *)
  check "crashed rounds" stats.Network.rounds stats.Network.crashed_rounds

let test_crash_recover () =
  (* vertex 1 is down for rounds 2-3: the round-1 send sits in its inbox
     when the crash wipes it, the round-2/3 sends are dropped on the wire,
     and the round-4/5 sends arrive after recovery *)
  let g = Generators.path 2 in
  let faults =
    Faults.make
      ~crashes:[ { Faults.vertex = 1; at_round = 2; recover_round = Some 4 } ]
      ~seed:5 ()
  in
  let received, stats = sender_protocol ~faults g ~last:5 in
  check "post-recovery receptions only" 2 received.(1);
  check "in-crash sends dropped" 2 stats.Network.dropped;
  check "two crashed rounds" 2 stats.Network.crashed_rounds;
  (* the wiped round-1 message is neither received nor dropped *)
  check "invariant" stats.Network.messages
    (received.(0) + received.(1) + stats.Network.dropped + 1)

let test_outage_interval () =
  (* triangle: link 0-1 is down for rounds 1-2; link 0-2 is untouched *)
  let g = Generators.cycle 3 in
  let faults =
    Faults.make
      ~outages:[ { Faults.u = 0; v = 1; from_round = 1; until_round = 2 } ]
      ~seed:5 ()
  in
  let received, stats = sender_protocol ~faults g ~last:3 in
  check "only the post-outage send crossed 0-1" 1 received.(1);
  check "link 0-2 unaffected" 3 received.(2);
  check "two drops" 2 stats.Network.dropped

let test_inactive_spec_is_identity () =
  (* three ways of running faultlessly must agree bit for bit *)
  let g = Generators.grid 3 3 in
  let plain = sender_protocol g ~last:4 in
  let none = sender_protocol ~faults:Faults.none g ~last:4 in
  let zeroed = sender_protocol ~faults:(Faults.make ~seed:13 ()) g ~last:4 in
  checkb "?faults absent = Faults.none" true (plain = none);
  checkb "?faults absent = all-zero spec" true (plain = zeroed)

let test_active_spec_without_firing_faults () =
  (* an outage scheduled after the horizon keeps the spec active (the
     bookkeeping runs) but must not change the execution *)
  let g = Generators.grid 3 3 in
  let plain = sender_protocol g ~last:4 in
  let dormant =
    sender_protocol
      ~faults:
        (Faults.make
           ~outages:
             [ { Faults.u = 0; v = 1; from_round = 900; until_round = 901 } ]
           ~seed:13 ())
      g ~last:4
  in
  checkb "dormant active spec = faultless run" true (plain = dormant)

let test_duplication_last_traffic () =
  (* every delivery is duplicated: the duplicate rides in the same round
     as its original, so last_traffic_round must equal the last sending
     round — identically in the reference, event-driven and sharded
     loops (the satellite-4 accounting pin) *)
  let g = Generators.path 2 in
  let faults () = Faults.make ~duplicate_rate:1.0 ~seed:11 () in
  let last = 3 in
  let round r (ctx : Network.ctx) () _ =
    if ctx.id = 0 then
      if r > last then Network.step () ~halt:true
      else Network.step () ~send:[ (1, r) ] ~wake_after:1
    else if r > last + 1 then Network.step () ~halt:true
    else Network.step () ~wake_after:(last + 2 - r)
  in
  let _, ref_stats =
    Network.run_reference ~faults:(faults ()) g ~bandwidth:Network.Local
      ~msg_bits:(fun _ -> 1)
      ~init:(fun _ -> ())
      ~round ~max_rounds:10
  in
  let _, ev_stats =
    Network.run ~faults:(faults ()) g
      ~bandwidth:Network.Local
      ~msg_bits:(fun _ -> 1)
      ~init:(fun _ -> ())
      ~round ~max_rounds:10
  in
  let pool = Parallel.Pool.create ~jobs:2 () in
  let _, sh_stats =
    Network.run ~faults:(faults ()) g
      ~exec:(Network.Sharded { shards = 2; pool })
      ~bandwidth:Network.Local
      ~msg_bits:(fun _ -> 1)
      ~init:(fun _ -> ())
      ~round ~max_rounds:10
  in
  check "last traffic = last sending round" last
    ref_stats.Network.last_traffic_round;
  check "every delivery duplicated" last ref_stats.Network.duplicated;
  checkb "event loop matches" true (ref_stats = ev_stats);
  checkb "sharded loop matches" true (ref_stats = sh_stats)

let test_fault_counters_metered () =
  Obs.reset ();
  Obs.enable ();
  let g = Generators.path 2 in
  let faults = Faults.make ~drop_rate:1.0 ~seed:5 () in
  let stats =
    Obs.Span.with_ "net" (fun () -> snd (sender_protocol ~faults g ~last:4))
  in
  let tree = Obs.snapshot_tree () in
  Obs.disable ();
  match Obs.Agg.find_path tree [ "net" ] with
  | None -> Alcotest.fail "no span recorded"
  | Some node ->
      let sum key =
        match Obs.Agg.SMap.find_opt key node.Obs.Agg.sums with
        | Some v -> v
        | None -> 0
      in
      check "net.dropped metered" stats.Network.dropped
        (sum Obs.Meter.k_dropped);
      check "net.duplicated metered" stats.Network.duplicated
        (sum Obs.Meter.k_duplicated);
      check "net.crashed_rounds metered" stats.Network.crashed_rounds
        (sum Obs.Meter.k_crashed_rounds)

(* ------------------------------------------------------------------ *)
(* Reliable transport                                                   *)
(* ------------------------------------------------------------------ *)

let payload seq body = Distr.Reliable.Payload { seq; body }
let ack seq = Distr.Reliable.Ack { seq }

let test_reliable_ack_cycle () =
  let open Distr.Reliable in
  (* payloads still queued: a flush far in the future retransmits each *)
  let queued st = List.length (snd (flush st ~now:1000)) in
  let sender = send (create ()) ~dst:7 "hello" in
  check "one pending" 1 (queued sender);
  let sender, out = flush sender ~now:1 in
  Alcotest.(check int) "one transmission" 1 (List.length out);
  (* the receiver (vertex 7) sees the payload from vertex 3 *)
  let receiver, fresh, acks = deliver (create ()) [ (3, payload 0 "hello") ] in
  Alcotest.(check (list (pair int string))) "fresh once" [ (3, "hello") ] fresh;
  check "one ack" 1 (List.length acks);
  check "receiver queue untouched" 0 (queued receiver);
  (* the ack returns to the sender and clears the queue *)
  let sender, _, _ = deliver sender [ (7, ack 0) ] in
  check "sender idle after ack" 0 (queued sender)

let test_reliable_dedup () =
  let open Distr.Reliable in
  let st, fresh1, acks1 = deliver (create ()) [ (3, payload 0 "x") ] in
  let _, fresh2, acks2 = deliver st [ (3, payload 0 "x") ] in
  check "first delivery fresh" 1 (List.length fresh1);
  check "duplicate not fresh" 0 (List.length fresh2);
  (* but the duplicate is re-acked: the first ack may have been lost *)
  check "first ack" 1 (List.length acks1);
  check "duplicate re-acked" 1 (List.length acks2)

let test_reliable_backoff_schedule () =
  let open Distr.Reliable in
  let st = send (create ()) ~dst:2 "m" in
  let emitted st now =
    let st, out = flush st ~now in
    (st, List.length out)
  in
  (* due immediately; then backoff 2, 4, capped at 8 *)
  let st, k1 = emitted st 1 in
  check "first transmission" 1 k1;
  let st, k2 = emitted st 2 in
  check "not due at now+1" 0 k2;
  let st, k3 = emitted st 3 in
  check "retry after backoff 2" 1 k3;
  let st, k4 = emitted st 6 in
  check "not due before backoff 4" 0 k4;
  let st, k5 = emitted st 7 in
  check "retry after backoff 4" 1 k5;
  let st, k6 = emitted st 14 in
  check "not due before capped backoff 8" 0 k6;
  let _, k7 = emitted st 15 in
  check "retry after capped backoff 8" 1 k7

let test_reliable_cancel () =
  let open Distr.Reliable in
  let st = send (send (create ()) ~dst:1 "a") ~dst:2 "b" in
  let st = cancel st ~dst:1 in
  let _, out = flush st ~now:1 in
  Alcotest.(check (list int)) "only dst 2 remains" [ 2 ] (List.map fst out)

let test_reliable_max_per_dst () =
  let open Distr.Reliable in
  let st =
    send (send (send (create ()) ~dst:4 "a") ~dst:4 "b") ~dst:4 "c"
  in
  let st, out1 = flush ~max_per_dst:1 st ~now:1 in
  check "capped to one per flush" 1 (List.length out1);
  let _, out2 = flush ~max_per_dst:1 st ~now:1 in
  check "next flush sends the next one" 1 (List.length out2);
  checkb "oldest first" true (out1 <> out2)

(* ------------------------------------------------------------------ *)
(* Crash recovery in the retry-hardened primitives                      *)
(* ------------------------------------------------------------------ *)

let test_election_reelects_after_leader_crash () =
  (* 4x4 grid: the faultless winner is the max-(degree, id) vertex; crash
     it permanently and the survivors must evict it and agree on the best
     live candidate *)
  let g = Generators.grid 4 4 in
  let view = Distr.Cluster_view.whole g in
  let plain = Distr.Leader_election.run view ~rounds:10 in
  let old_leader = plain.Distr.Leader_election.leader_of.(0) in
  let faults =
    Faults.make
      ~crashes:
        [ { Faults.vertex = old_leader; at_round = 3; recover_round = None } ]
      ~seed:11 ()
  in
  let r = Distr.Leader_election.run_reliable ~faults ~patience:4 view ~rounds:60 in
  let live = List.filter (fun v -> v <> old_leader) (List.init 16 Fun.id) in
  let new_leader = r.Distr.Leader_election.leader_of.(List.hd live) in
  checkb "new leader elected" true (new_leader <> old_leader);
  List.iter
    (fun v ->
      check "survivors agree" new_leader r.Distr.Leader_election.leader_of.(v))
    live;
  (* best live candidate: max (intra degree, id) over the survivors *)
  let expected =
    List.fold_left
      (fun (bd, bi) v ->
        let d = Distr.Cluster_view.intra_degree view v in
        if d > bd || (d = bd && v > bi) then (d, v) else (bd, bi))
      (-1, -1) live
  in
  check "new leader is the best survivor" (snd expected) new_leader

let test_bfs_reroots_after_crash () =
  (* 4x4 grid rooted at 0: crash interior vertex 5; its children re-root
     onto the live tree and every survivor converges to the BFS distance
     of the graph without the crashed vertex *)
  let g = Generators.grid 4 4 in
  let n = Graph.n g in
  let view = Distr.Cluster_view.whole g in
  let crashed = 5 in
  let faults =
    Faults.make
      ~crashes:[ { Faults.vertex = crashed; at_round = 3; recover_round = None } ]
      ~seed:11 ()
  in
  let roots = Array.init n (fun v -> v = 0) in
  let r = Distr.Bfs_tree.run_reliable ~faults ~patience:3 view ~roots ~rounds:80 in
  (* centralized BFS skipping the crashed vertex *)
  let dist = Array.make n (-1) in
  dist.(0) <- 0;
  let q = Queue.create () in
  Queue.add 0 q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun w ->
        if w <> crashed && dist.(w) < 0 then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w q
        end)
      (Graph.neighbors g v)
  done;
  for v = 0 to n - 1 do
    if v <> crashed then begin
      check
        (Printf.sprintf "depth of %d" v)
        dist.(v)
        r.Distr.Bfs_tree.depth.(v);
      if v <> 0 then begin
        checkb "parent is live" true (r.Distr.Bfs_tree.parent.(v) <> crashed);
        check "parent one level up"
          (dist.(v) - 1)
          dist.(r.Distr.Bfs_tree.parent.(v))
      end
    end
  done

let test_bfs_orphans_disconnected_vertex () =
  (* path 0-1-2 rooted at 0: crashing the middle vertex leaves vertex 2
     with no live neighbor, so after the patience timeout it must end up
     orphaned rather than keeping a stale parent *)
  let g = Generators.path 3 in
  let view = Distr.Cluster_view.whole g in
  let faults =
    Faults.make
      ~crashes:[ { Faults.vertex = 1; at_round = 2; recover_round = None } ]
      ~seed:11 ()
  in
  let roots = [| true; false; false |] in
  let r = Distr.Bfs_tree.run_reliable ~faults ~patience:3 view ~roots ~rounds:40 in
  check "root depth" 0 r.Distr.Bfs_tree.depth.(0);
  check "cut-off vertex orphaned" (-1) r.Distr.Bfs_tree.depth.(2);
  check "cut-off vertex has no parent" (-1) r.Distr.Bfs_tree.parent.(2)

(* ------------------------------------------------------------------ *)
(* qcheck properties                                                    *)
(* ------------------------------------------------------------------ *)

let graph_gen =
  let open QCheck.Gen in
  oneof
    [
      (int_range 2 5 >>= fun rc ->
       int_range 2 5 >>= fun cc ->
       return (Printf.sprintf "grid(%d,%d)" rc cc, Generators.grid rc cc));
      (int_range 4 40 >>= fun n ->
       int_range 0 1000 >>= fun seed ->
       return
         (Printf.sprintf "apollonian(%d,%d)" n seed,
          Generators.random_apollonian n ~seed));
    ]

let fault_case_gen =
  let open QCheck.Gen in
  graph_gen >>= fun (name, g) ->
  int_range 0 10_000 >>= fun fseed ->
  oneofl [ 0.05; 0.1; 0.2 ] >>= fun rate ->
  return (Printf.sprintf "%s seed=%d drop=%.2f" name fseed rate, g, fseed, rate)

let fault_case_arb =
  QCheck.make ~print:(fun (name, _, _, _) -> name) fault_case_gen

let run_reliable_broadcast ?faults g ~rounds =
  let view = Distr.Cluster_view.whole g in
  let sources =
    Array.init (Graph.n g) (fun v -> if v = 0 then Some 424242 else None)
  in
  (view, sources, Distr.Broadcast.run_reliable ?faults view ~sources ~rounds)

let budget g = (4 * Traversal.diameter_double_sweep g) + 40

let same_seed_same_run_across_pool_sizes =
  (* the fault sweep's parity contract: running the same faulty simulation
     as tasks of a 1-worker and a 4-worker pool yields identical results
     and statistics *)
  let pool1 = lazy (Parallel.Pool.create ~jobs:1 ()) in
  let pool4 = lazy (Parallel.Pool.create ~jobs:4 ()) in
  QCheck.Test.make ~name:"fault run: jobs 1 = jobs 4" ~count:15 fault_case_arb
    (fun (_, g, fseed, rate) ->
      let task seed =
        let faults = Faults.make ~drop_rate:rate ~duplicate_rate:(rate /. 4.) ~seed () in
        let _, _, r = run_reliable_broadcast ~faults g ~rounds:(budget g) in
        (r.Distr.Broadcast.received, r.Distr.Broadcast.stats)
      in
      let seeds = List.init 3 (fun i -> Parallel.Pool.derive_seed fseed i) in
      Parallel.Pool.map_list (Lazy.force pool1) task seeds
      = Parallel.Pool.map_list (Lazy.force pool4) task seeds)

let zero_drop_equals_faultless =
  QCheck.Test.make ~name:"drop rate 0 = faultless run" ~count:25 fault_case_arb
    (fun (_, g, fseed, _) ->
      let rounds = budget g in
      let _, _, plain = run_reliable_broadcast g ~rounds in
      let faults = Faults.make ~drop_rate:0. ~duplicate_rate:0. ~seed:fseed () in
      let _, _, zeroed = run_reliable_broadcast ~faults g ~rounds in
      plain.Distr.Broadcast.received = zeroed.Distr.Broadcast.received
      && plain.Distr.Broadcast.stats = zeroed.Distr.Broadcast.stats)

let broadcast_completes_under_drops =
  QCheck.Test.make ~name:"reliable broadcast completes at drop <= 0.2"
    ~count:20 fault_case_arb (fun (_, g, fseed, rate) ->
      let faults =
        Faults.make ~drop_rate:rate ~duplicate_rate:(rate /. 4.) ~seed:fseed ()
      in
      let view, sources, r = run_reliable_broadcast ~faults g ~rounds:(budget g) in
      Distr.Broadcast.check view r ~sources)

let bfs_completes_under_drops =
  QCheck.Test.make ~name:"reliable BFS completes at drop <= 0.2" ~count:15
    fault_case_arb (fun (_, g, fseed, rate) ->
      let faults =
        Faults.make ~drop_rate:rate ~duplicate_rate:(rate /. 4.) ~seed:fseed ()
      in
      let view = Distr.Cluster_view.whole g in
      let roots = Array.init (Graph.n g) (fun v -> v = 0) in
      (* patience 10: a spurious orphaning needs 11 consecutive dropped
         parent heartbeats (p^11), so a late false timeout cannot leave a
         wrong final depth within the round budget *)
      let r =
        Distr.Bfs_tree.run_reliable ~faults ~patience:10 view ~roots
          ~rounds:(budget g)
      in
      Distr.Bfs_tree.check view r ~roots)

let election_completes_under_drops =
  QCheck.Test.make ~name:"reliable election completes at drop <= 0.2" ~count:15
    fault_case_arb (fun (_, g, fseed, rate) ->
      let faults =
        Faults.make ~drop_rate:rate ~duplicate_rate:(rate /. 4.) ~seed:fseed ()
      in
      let view = Distr.Cluster_view.whole g in
      let patience = (2 * Traversal.diameter_double_sweep g) + 8 in
      let r =
        Distr.Leader_election.run_reliable ~faults ~patience view
          ~rounds:(budget g)
      in
      Distr.Leader_election.check view r)

let accounting_invariant_under_faults =
  QCheck.Test.make ~name:"delivered + dropped = messages under faults"
    ~count:25 fault_case_arb (fun (_, g, fseed, rate) ->
      (* every vertex floods its neighbors for six rounds and reads its
         inbox one round more, so every message that reaches an inbox is
         read *)
      let flood faults =
        let received = ref 0 in
        let init _ = () in
        let round r (ctx : Network.ctx) () inbox =
          received := !received + List.length inbox;
          let send =
            if r <= 6 then
              Array.to_list (Array.map (fun w -> (w, r)) ctx.neighbors)
            else []
          in
          { Network.wake_after = Some 1; state = (); send; halt = r > 6 }
        in
        let _, stats =
          Network.run ~faults g ~bandwidth:Network.Local
            ~msg_bits:(fun _ -> 4)
            ~init ~round ~max_rounds:8
        in
        (!received, stats)
      in
      let on_wire = Faults.make ~drop_rate:rate ~duplicate_rate:rate ~seed:fseed () in
      let crash =
        Faults.make ~drop_rate:rate ~duplicate_rate:rate
          ~crashes:
            [ { Faults.vertex = 1 mod Graph.n g; at_round = 2; recover_round = Some 5 } ]
          ~seed:fseed ()
      in
      (* without a crash, every message sent is read or dropped, and each
         duplicate is read once more *)
      let received, stats = flood on_wire in
      let exact =
        received + stats.Network.dropped
        = stats.Network.messages + stats.Network.duplicated
      in
      (* a crash wipes its vertex's inbox, losing messages uncounted *)
      let received, stats = flood crash in
      exact
      && received + stats.Network.dropped
         <= stats.Network.messages + stats.Network.duplicated)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "faults"
    [
      ( "spec",
        [
          tc "make validates" test_make_validation;
          tc "is_active" test_is_active;
          tc "rng deterministic" test_rng_deterministic;
        ] );
      ( "network",
        [
          tc "drop rate 1 loses everything" test_drop_everything;
          tc "duplicate rate 1 doubles deliveries" test_duplicate_everything;
          tc "permanent crash" test_crash_permanent;
          tc "crash and recover" test_crash_recover;
          tc "link outage interval" test_outage_interval;
          tc "inactive spec is the identity" test_inactive_spec_is_identity;
          tc "active spec without firing faults"
            test_active_spec_without_firing_faults;
          tc "duplication-only last traffic" test_duplication_last_traffic;
          tc "fault counters reach the meter" test_fault_counters_metered;
        ] );
      ( "reliable",
        [
          tc "send / deliver / ack cycle" test_reliable_ack_cycle;
          tc "duplicate payloads dedup and re-ack" test_reliable_dedup;
          tc "exponential backoff schedule" test_reliable_backoff_schedule;
          tc "cancel clears a destination" test_reliable_cancel;
          tc "per-destination flush cap" test_reliable_max_per_dst;
        ] );
      ( "crash recovery",
        [
          tc "election re-elects after leader crash"
            test_election_reelects_after_leader_crash;
          tc "BFS re-roots after crash" test_bfs_reroots_after_crash;
          tc "BFS orphans a disconnected vertex"
            test_bfs_orphans_disconnected_vertex;
        ] );
      ( "properties",
        [
          qt same_seed_same_run_across_pool_sizes;
          qt zero_drop_equals_faultless;
          qt broadcast_completes_under_drops;
          qt bfs_completes_under_drops;
          qt election_completes_under_drops;
          qt accounting_invariant_under_faults;
        ] );
    ]
