(* Worker-pool unit tests plus the parallel/sequential equivalence
   property: decompose, verify, and Pipeline.prepare ~mode:Charged must
   produce identical results at every pool size. Run under the @parity
   alias with EXPANDER_JOBS set to 1 and 4 (see test/dune). *)

open Sparse_graph

let check = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                      *)
(* ------------------------------------------------------------------ *)

let test_map_order_and_values () =
  let pool = Parallel.Pool.create ~jobs:4 () in
  let arr = Array.init 100 (fun i -> i) in
  let out = Parallel.Pool.map pool (fun x -> x * x) arr in
  Array.iteri (fun i v -> check "square in slot" (i * i) v) out;
  let out1 = Parallel.Pool.map Parallel.Pool.sequential (fun x -> x * x) arr in
  Alcotest.(check (array int)) "sequential agrees" out1 out

let test_mapi_indices () =
  let pool = Parallel.Pool.create ~jobs:3 () in
  let arr = Array.make 17 "x" in
  let out = Parallel.Pool.mapi pool (fun i s -> (i, s)) arr in
  Array.iteri (fun i (j, _) -> check "index passed through" i j) out

let test_map_reduce_order () =
  let pool = Parallel.Pool.create ~jobs:4 () in
  let arr = Array.init 50 (fun i -> i) in
  (* non-commutative reduction: list cons. Sequential fold order means the
     result is exactly the reversed map outputs. *)
  let folded =
    Parallel.Pool.map_reduce pool
      ~map:(fun x -> x * 3)
      ~reduce:(fun acc v -> v :: acc)
      ~init:[] arr
  in
  Alcotest.(check (list int))
    "fold in index order"
    (List.rev (List.init 50 (fun i -> i * 3)))
    folded

let test_map_list () =
  let pool = Parallel.Pool.create ~jobs:4 () in
  let out = Parallel.Pool.map_list pool (fun x -> x + 1) [ 5; 6; 7 ] in
  Alcotest.(check (list int)) "list map" [ 6; 7; 8 ] out

let test_exception_propagates () =
  let pool = Parallel.Pool.create ~jobs:4 () in
  let arr = Array.init 20 (fun i -> i) in
  match
    Parallel.Pool.map pool
      (fun x -> if x = 7 || x = 13 then failwith (string_of_int x) else x)
      arr
  with
  | exception Failure msg ->
      (* lowest-indexed failure wins, deterministically *)
      Alcotest.(check string) "first failure re-raised" "7" msg
  | _ -> Alcotest.fail "expected Failure"

let test_nested_map_runs_inline () =
  let pool = Parallel.Pool.create ~jobs:4 () in
  let out =
    Parallel.Pool.map pool
      (fun x ->
        (* a nested map on the same pool must not spawn more domains *)
        Array.fold_left ( + ) 0
          (Parallel.Pool.map pool (fun y -> x * y) [| 1; 2; 3 |]))
      (Array.init 10 (fun i -> i))
  in
  Array.iteri (fun i v -> check "nested result" (6 * i) v) out

let test_derive_seed_deterministic () =
  let a = Parallel.Pool.derive_seed 12345 678 in
  let b = Parallel.Pool.derive_seed 12345 678 in
  check "stable" a b;
  Alcotest.(check bool)
    "distinct salts give distinct seeds" true
    (Parallel.Pool.derive_seed 12345 678 <> Parallel.Pool.derive_seed 12345 679);
  Alcotest.(check bool) "non-negative" true (a >= 0)

let test_default_jobs_env () =
  (* EXPANDER_JOBS is set by the @parity alias; when present it must win *)
  match Sys.getenv_opt "EXPANDER_JOBS" with
  | Some v ->
      check "env respected" (int_of_string v) (Parallel.Pool.default_jobs ())
  | None ->
      Alcotest.(check bool)
        "positive default" true
        (Parallel.Pool.default_jobs () >= 1)

let test_default_jobs_rejects_malformed_env () =
  (* a malformed EXPANDER_JOBS must raise, never silently fall back to
     the machine default (the silent-substitution regression) *)
  let saved = Sys.getenv_opt "EXPANDER_JOBS" in
  let restore () =
    match saved with
    | Some v -> Unix.putenv "EXPANDER_JOBS" v
    | None -> Unix.putenv "EXPANDER_JOBS" ""
  in
  Fun.protect ~finally:restore @@ fun () ->
  let expect_invalid v =
    Unix.putenv "EXPANDER_JOBS" v;
    match Parallel.Pool.default_jobs () with
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S: message names the variable" v)
          true
          (let has needle s =
             let nl = String.length needle and sl = String.length s in
             let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
             go 0
           in
           has "EXPANDER_JOBS" msg && has v msg)
    | j -> Alcotest.failf "EXPANDER_JOBS=%S: expected Invalid_argument, got %d" v j
  in
  List.iter expect_invalid [ "O"; "0"; "-3"; "4x"; "2.5" ];
  (* empty / whitespace values mean unset, valid values still win *)
  Unix.putenv "EXPANDER_JOBS" "";
  Alcotest.(check bool)
    "empty value falls back" true
    (Parallel.Pool.default_jobs () >= 1);
  Unix.putenv "EXPANDER_JOBS" " 3 ";
  check "whitespace-padded value parses" 3 (Parallel.Pool.default_jobs ())

(* ------------------------------------------------------------------ *)
(* Team barrier                                                         *)
(* ------------------------------------------------------------------ *)

let test_team_runs_every_task () =
  let pool = Parallel.Pool.create ~jobs:4 () in
  let team = Parallel.Pool.Team.create pool ~tasks:13 in
  Fun.protect ~finally:(fun () -> Parallel.Pool.Team.shutdown team)
  @@ fun () ->
  let hits = Array.make 13 0 in
  (* several rounds over the same team: each run must execute every task
     exactly once, with writes visible after the barrier *)
  for round = 1 to 5 do
    Parallel.Pool.Team.run team (fun i -> hits.(i) <- hits.(i) + 1);
    Array.iteri
      (fun i h -> check (Printf.sprintf "round %d task %d" round i) round h)
      hits
  done

let test_team_exception_lowest_task_wins () =
  let pool = Parallel.Pool.create ~jobs:4 () in
  let team = Parallel.Pool.Team.create pool ~tasks:16 in
  Fun.protect ~finally:(fun () -> Parallel.Pool.Team.shutdown team)
  @@ fun () ->
  (match
     Parallel.Pool.Team.run team (fun i ->
         if i = 5 || i = 11 then failwith (string_of_int i))
   with
  | exception Failure msg ->
      Alcotest.(check string) "lowest-indexed failure re-raised" "5" msg
  | () -> Alcotest.fail "expected Failure");
  (* the team survives a failed round *)
  let sum = Array.make 16 0 in
  Parallel.Pool.Team.run team (fun i -> sum.(i) <- i);
  check "next run still works" 120 (Array.fold_left ( + ) 0 sum)

let test_team_stale_error_cleared () =
  (* regression: run clears the per-task error slots at entry and
     raise_first clears the slot it re-raises, so an error left over from
     an earlier generation can never surface on a later, healthy run —
     and a later failure at a higher index raises that index, not a
     stale lower one *)
  let pool = Parallel.Pool.create ~jobs:4 () in
  let team = Parallel.Pool.Team.create pool ~tasks:16 in
  Fun.protect ~finally:(fun () -> Parallel.Pool.Team.shutdown team)
  @@ fun () ->
  (match
     Parallel.Pool.Team.run team (fun i ->
         if i = 3 || i = 12 then failwith (string_of_int i))
   with
  | exception Failure msg ->
      Alcotest.(check string) "first round raises lowest" "3" msg
  | () -> Alcotest.fail "expected Failure");
  (match
     Parallel.Pool.Team.run team (fun i ->
         if i = 12 then failwith (string_of_int i))
   with
  | exception Failure msg ->
      Alcotest.(check string) "second round raises its own failure, not a \
                               stale slot" "12" msg
  | () -> Alcotest.fail "expected Failure");
  Parallel.Pool.Team.run team (fun _ -> ());
  (* reaching here means the healthy third round raised nothing *)
  ()

let test_team_sequential_error_semantics () =
  (* the inline (workers <= 1) path has the same contract as the parallel
     one: every task still runs, the lowest-indexed failure is re-raised,
     and the team stays usable *)
  let team = Parallel.Pool.Team.create Parallel.Pool.sequential ~tasks:7 in
  Fun.protect ~finally:(fun () -> Parallel.Pool.Team.shutdown team)
  @@ fun () ->
  let ran = Array.make 7 false in
  (match
     Parallel.Pool.Team.run team (fun i ->
         ran.(i) <- true;
         if i = 2 || i = 5 then failwith (string_of_int i))
   with
  | exception Failure msg ->
      Alcotest.(check string) "lowest failure wins inline" "2" msg
  | () -> Alcotest.fail "expected Failure");
  Alcotest.(check bool)
    "every task ran despite the failure" true
    (Array.for_all Fun.id ran);
  let sum = ref 0 in
  Parallel.Pool.Team.run team (fun i -> sum := !sum + i);
  check "team reusable after inline failure" 21 !sum

let test_team_sequential_pool_inline () =
  let team = Parallel.Pool.Team.create Parallel.Pool.sequential ~tasks:7 in
  Fun.protect ~finally:(fun () -> Parallel.Pool.Team.shutdown team)
  @@ fun () ->
  let order = ref [] in
  Parallel.Pool.Team.run team (fun i -> order := i :: !order);
  (* jobs = 1 runs the tasks inline, in ascending order *)
  Alcotest.(check (list int)) "inline ascending" [ 0; 1; 2; 3; 4; 5; 6 ]
    (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Parallel/sequential equivalence over random graphs                   *)
(* ------------------------------------------------------------------ *)

let graph_gen =
  let open QCheck.Gen in
  oneof
    [
      (int_range 2 60 >>= fun n ->
       int_range 0 1000 >>= fun seed ->
       float_range 0.05 0.35 >>= fun p ->
       return (Printf.sprintf "er(%d,%.2f,%d)" n p seed,
               Graph_fixtures.erdos_renyi n p ~seed));
      (int_range 2 8 >>= fun r ->
       int_range 2 8 >>= fun c ->
       return (Printf.sprintf "grid(%d,%d)" r c, Generators.grid r c));
      (int_range 4 60 >>= fun n ->
       int_range 0 1000 >>= fun seed ->
       return (Printf.sprintf "apollonian(%d,%d)" n seed,
               Generators.random_apollonian n ~seed));
    ]

let graph_arb =
  QCheck.make ~print:(fun (name, _) -> name) graph_gen

let pool4 = lazy (Parallel.Pool.create ~jobs:4 ())

let decompose_equivalence =
  QCheck.Test.make ~name:"decompose: jobs 1 = jobs 4" ~count:40 graph_arb
    (fun (_, g) ->
      let open Spectral.Expander_decomposition in
      let seq = decompose g ~epsilon:0.3 in
      let par = decompose ~pool:(Lazy.force pool4) g ~epsilon:0.3 in
      seq.labels = par.labels && seq.k = par.k
      && seq.inter_edges = par.inter_edges
      && seq.phi = par.phi && seq.tau = par.tau)

let verify_equivalence =
  QCheck.Test.make ~name:"verify: jobs 1 = jobs 4" ~count:25 graph_arb
    (fun (_, g) ->
      let open Spectral.Expander_decomposition in
      let d = decompose g ~epsilon:0.3 in
      verify ~power_iters:120 ~seed:0 g d
      = verify ~power_iters:120 ~seed:0 ~pool:(Lazy.force pool4) g d)

let prepare_equivalence =
  QCheck.Test.make ~name:"Pipeline.prepare Charged: jobs 1 = jobs 4"
    ~count:25 graph_arb (fun (_, g) ->
      let open Core.Pipeline in
      let a = prepare ~mode:Charged g ~epsilon:0.3 ~seed:7 in
      let b =
        prepare ~mode:Charged ~pool:(Lazy.force pool4) g ~epsilon:0.3 ~seed:7
      in
      a.leader_of = b.leader_of
      && a.report = b.report
      && a.decomposition.Spectral.Expander_decomposition.labels
         = b.decomposition.Spectral.Expander_decomposition.labels
      && Array.length a.clusters = Array.length b.clusters
      && Array.for_all2
           (fun (x : cluster) (y : cluster) ->
             x.leader = y.leader && x.members = y.members
             && Graph.n x.sub = Graph.n y.sub
             && Graph.m x.sub = Graph.m y.sub)
           a.clusters b.clusters)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          tc "map preserves order and values" test_map_order_and_values;
          tc "mapi passes indices" test_mapi_indices;
          tc "map_reduce folds in index order" test_map_reduce_order;
          tc "map_list" test_map_list;
          tc "lowest-indexed exception propagates" test_exception_propagates;
          tc "nested maps run inline" test_nested_map_runs_inline;
          tc "derive_seed deterministic" test_derive_seed_deterministic;
          tc "default_jobs honours EXPANDER_JOBS" test_default_jobs_env;
          tc "default_jobs rejects malformed EXPANDER_JOBS"
            test_default_jobs_rejects_malformed_env;
        ] );
      ( "team",
        [
          tc "run executes every task, repeatedly" test_team_runs_every_task;
          tc "lowest-indexed exception wins" test_team_exception_lowest_task_wins;
          tc "stale error slots are cleared" test_team_stale_error_cleared;
          tc "inline path keeps the error contract"
            test_team_sequential_error_semantics;
          tc "sequential pool runs inline in order"
            test_team_sequential_pool_inline;
        ] );
      ( "equivalence",
        [ qt decompose_equivalence; qt verify_equivalence;
          qt prepare_equivalence ] );
    ]
