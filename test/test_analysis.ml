(* Engine-level tests for the static-analysis pass: per-rule
   positive/negative fixture pairs over inline snippets, the suppression
   comment path, and the baseline round trip. Fixtures are parsed with the
   same compiler-libs front end as the real run, so a finding asserted
   here is exactly what `dune build @lint` would report. *)

open Analysis

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* run the engine over (path, content) fixtures; returns fresh findings *)
let run ?libraries ?baseline fixtures =
  let sources =
    List.map (fun (path, content) -> Source.of_string ~path content) fixtures
  in
  Engine.analyze ?libraries ?baseline sources

let fresh ?libraries ?baseline fixtures =
  Engine.fresh (run ?libraries ?baseline fixtures)

let count_rule rule findings =
  List.length (List.filter (fun (f : Finding.t) -> f.rule = rule) findings)

(* ------------------------------------------------------------------ *)
(* D001: global PRNG                                                    *)
(* ------------------------------------------------------------------ *)

let test_d001_positive () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let pick n = Random.int n\nlet seeded () = Random.self_init ()" );
      ]
  in
  check "two global draws" 2 (count_rule "D001" fs);
  let f = List.hd fs in
  checks "file" "lib/fake/a.ml" f.file;
  check "line of first" 1 f.line

let test_d001_negative () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let pick st n = Random.State.int st n\n\
           let st = Random.State.make [| 42 |]" );
      ]
  in
  check "seeded state is fine" 0 (count_rule "D001" fs)

let test_d001_self_init_state () =
  let fs =
    fresh
      [ ("lib/fake/a.ml", "let st () = Random.State.make_self_init ()") ]
  in
  check "make_self_init flagged" 1 (count_rule "D001" fs)

(* the fault-injection RNG pattern (lib/congest/faults.ml): a state seeded
   from an explicit integer array, drawn with Random.State — D001-clean *)
let test_d001_fault_rng_clean () =
  let fs =
    fresh
      [
        ( "lib/fake/faults.ml",
          "let rng t = Random.State.make [| t.seed; 0x6A09; 0xE667 |]\n\
           let drops t st = Random.State.float st 1. < t.drop_rate" );
      ]
  in
  check "seeded fault rng passes" 0 (count_rule "D001" fs)

(* the same layer written against the global PRNG must be flagged: the
   drop decisions would then depend on ambient draws and break the
   cross-jobs byte-identity contract *)
let test_d001_fault_rng_global_flagged () =
  let fs =
    fresh
      [
        ( "lib/fake/faults.ml",
          "let drops t = Random.float 1. < t.drop_rate\n\
           let dups t = Random.bool ()" );
      ]
  in
  check "global fault rng flagged" 2 (count_rule "D001" fs)

(* ------------------------------------------------------------------ *)
(* D002: unordered-iteration escape                                     *)
(* ------------------------------------------------------------------ *)

let test_d002_fold_positive () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []" );
      ]
  in
  check "unsorted fold flagged" 1 (count_rule "D002" fs)

let test_d002_fold_sorted_negative () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let keys tbl =\n\
          \  Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n\
          \  |> List.sort compare\n\
           let keys2 tbl =\n\
          \  List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])"
        );
      ]
  in
  check "sorted folds pass" 0 (count_rule "D002" fs)

let test_d002_fold_commutative_negative () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let biggest tbl = Hashtbl.fold (fun _ s acc -> max s acc) tbl 1" );
      ]
  in
  check "max fold passes" 0 (count_rule "D002" fs)

let test_d002_iter_counter_positive () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let label tbl out =\n\
          \  let fresh = ref 0 in\n\
          \  Hashtbl.iter (fun k _ -> out.(k) <- !fresh; incr fresh) tbl" );
      ]
  in
  check "hash-order counter flagged" 1 (count_rule "D002" fs)

let test_d002_iter_local_ref_negative () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let ok tbl flag =\n\
          \  Hashtbl.iter\n\
          \    (fun _ vs ->\n\
          \      let acc = ref [] in\n\
          \      List.iter (fun v -> acc := v :: !acc) vs;\n\
          \      if List.length !acc > 3 then flag := false)\n\
          \    tbl" );
      ]
  in
  check "callback-local accumulator passes" 0 (count_rule "D002" fs)

(* ------------------------------------------------------------------ *)
(* D003: wall clock                                                     *)
(* ------------------------------------------------------------------ *)

let test_d003_positive () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let stamp () = Unix.gettimeofday ()\nlet cpu () = Sys.time ()" );
      ]
  in
  check "both clocks flagged" 2 (count_rule "D003" fs)

let test_d003_negative () =
  let fs =
    fresh [ ("lib/fake/a.ml", "let stamp counter = counter + 1") ]
  in
  check "no clock, no finding" 0 (count_rule "D003" fs)

let test_d003_obs_clock_exempt () =
  (* lib/obs/clock.ml is the single sanctioned wall-clock sink: raw clock
     primitives are allowed there without suppression comments *)
  let fs =
    fresh
      [
        ( "lib/obs/clock.ml",
          "let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)\n\
           let wall_s () = Unix.gettimeofday ()" );
      ]
  in
  check "sanctioned clock module passes" 0 (count_rule "D003" fs)

let test_d003_other_clock_module_flagged () =
  (* the exemption is the exact path, not any file called clock.ml or any
     directory called obs *)
  let fs =
    fresh
      [
        ("lib/fake/clock.ml", "let now () = Unix.gettimeofday ()");
        ("lib/obs/timer.ml", "let now () = Unix.gettimeofday ()");
        ("bench/obs/clock.ml", "let now () = Unix.gettimeofday ()");
      ]
  in
  check "clock reads outside lib/obs/clock.ml stay flagged" 3
    (count_rule "D003" fs)

(* ------------------------------------------------------------------ *)
(* P001: domain-unsafe parallel task                                    *)
(* ------------------------------------------------------------------ *)

let test_p001_direct_positive () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let cache = Hashtbl.create 16\n\
           let slow x = Hashtbl.replace cache x x; x\n\
           let all pool arr = Parallel.Pool.map pool slow arr" );
        ("lib/parallel/pool.ml", "let map _pool f arr = Array.map f arr");
      ]
  in
  check "task touching toplevel Hashtbl flagged" 1 (count_rule "P001" fs);
  let f = List.find (fun (f : Finding.t) -> f.rule = "P001") fs in
  checkb "names the mutable binding"
    true
    (let rec contains i =
       i + 7 <= String.length f.message
       && (String.sub f.message i 7 = "A.cache" || contains (i + 1))
     in
     contains 0)

let test_p001_pure_negative () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let slow x = x * x\n\
           let all pool arr = Parallel.Pool.map pool slow arr" );
        ("lib/parallel/pool.ml", "let map _pool f arr = Array.map f arr");
      ]
  in
  check "pure task passes" 0 (count_rule "P001" fs)

let test_p001_transitive_positive () =
  (* the mutable state is two call-graph hops away, in another module *)
  let fs =
    fresh
      [
        ( "lib/fake/state.ml",
          "let hits = ref 0\nlet bump () = incr hits" );
        ( "lib/fake/a.ml",
          "let middle x = State.bump (); x\n\
           let task x = middle x\n\
           let all pool arr = Parallel.Pool.map pool task arr" );
        ("lib/parallel/pool.ml", "let map _pool f arr = Array.map f arr");
      ]
  in
  check "cross-module transitive reach flagged" 1 (count_rule "P001" fs)

let test_p001_wrapper_positive () =
  (* the pool call is hidden behind a project wrapper taking the task as
     a parameter (the bench/experiments.ml `grid` shape) *)
  let fs =
    fresh
      [
        ( "lib/fake/wrap.ml",
          "let pool = ref 0\n\
           let grid tasks f = List.concat (Parallel.Pool.map_list !pool f tasks)"
        );
        ( "lib/fake/a.ml",
          "let seen = Buffer.create 64\n\
           let table xs = Wrap.grid xs (fun x -> Buffer.add_string seen x; [ x ])"
        );
        ("lib/parallel/pool.ml", "let map_list _pool f l = List.map f l");
      ]
  in
  check "wrapper-forwarded task flagged" 1 (count_rule "P001" fs)

let test_p001_lambda_local_negative () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let all pool arr =\n\
          \  Parallel.Pool.map pool\n\
          \    (fun x ->\n\
          \      let buf = Buffer.create 8 in\n\
          \      Buffer.add_string buf x;\n\
          \      Buffer.contents buf)\n\
          \    arr" );
        ("lib/parallel/pool.ml", "let map _pool f arr = Array.map f arr");
      ]
  in
  check "task-local buffer passes" 0 (count_rule "P001" fs)

(* ------------------------------------------------------------------ *)
(* P002: non-atomic write under a captured closure                      *)
(* ------------------------------------------------------------------ *)

let test_p002_captured_ref_positive () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let work team counts =\n\
          \  let total = ref 0 in\n\
          \  Parallel.Pool.Team.run team (fun i -> total := !total + counts.(i));\n\
          \  !total" );
      ]
  in
  check "captured ref written in task flagged" 1 (count_rule "P002" fs);
  let f = List.find (fun (f : Finding.t) -> f.rule = "P002") fs in
  checkb "names the captured binding" true
    (let rec contains i =
       i + 5 <= String.length f.message
       && (String.sub f.message i 5 = "total" || contains (i + 1))
     in
     contains 0)

let test_p002_task_local_array_negative () =
  (* the shard-private pattern: all mutation lands on state the task
     itself binds, so nothing escapes to another domain *)
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let work team =\n\
          \  Parallel.Pool.Team.run team (fun i ->\n\
          \      let scratch = Array.make 8 0 in\n\
          \      scratch.(i land 7) <- i;\n\
          \      ignore scratch)" );
      ]
  in
  check "task-local array passes" 0 (count_rule "P002" fs)

let test_p002_atomic_counter_negative () =
  (* Atomic is the sanctioned cross-domain write; deliberately not in the
     write-form table *)
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let work team total =\n\
          \  Parallel.Pool.Team.run team (fun _i -> Atomic.incr total)" );
      ]
  in
  check "atomic counter passes" 0 (count_rule "P002" fs)

let test_p002_domain_spawn_positive () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let fire results i x =\n\
          \  Domain.spawn (fun () -> results.(i) <- x)" );
      ]
  in
  check "Domain.spawn task writing captured array flagged" 1
    (count_rule "P002" fs)

(* ------------------------------------------------------------------ *)
(* P003: atomic get-then-set instead of a read-modify-write primitive   *)
(* ------------------------------------------------------------------ *)

let test_p003_get_then_set_positive () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let bump c =\n\
          \  let v = Atomic.get c in\n\
          \  Atomic.set c (v + 1)" );
      ]
  in
  check "get-then-set flagged" 1 (count_rule "P003" fs)

let test_p003_fetch_and_add_negative () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let bump c = Atomic.incr c\n\
           let add c n = ignore (Atomic.fetch_and_add c n)\n\
           let swap c v = ignore (Atomic.exchange c v)" );
      ]
  in
  check "read-modify-write primitives pass" 0 (count_rule "P003" fs)

let test_p003_separate_defs_negative () =
  (* a get in one definition and a set in another is not a lost-update
     window; the rule is per-binding *)
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let is_enabled f = Atomic.get f\n\
           let enable f = Atomic.set f true" );
      ]
  in
  check "get and set in separate defs pass" 0 (count_rule "P003" fs)

(* ------------------------------------------------------------------ *)
(* A001: allocation on a hot path                                       *)
(* ------------------------------------------------------------------ *)

let test_a001_allocating_hot_positive () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "(* lint: hot *)\nlet push xs x = x :: xs" );
      ]
  in
  check "allocating hot function flagged" 1 (count_rule "A001" fs)

let test_a001_non_allocating_hot_negative () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "(* lint: hot *)\n\
           let bump a i = a.(i) <- a.(i) + 1\n\
           (* lint: hot *)\n\
           let clamp x lo hi = if x < lo then lo else if x > hi then hi else x"
        );
      ]
  in
  check "non-allocating hot functions pass" 0 (count_rule "A001" fs)

let test_a001_transitive_via_helper_positive () =
  (* the allocation lives in an unmarked helper reached from the hot
     root; the finding is attributed to the root *)
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let helper x = Some x\n\
           (* lint: hot *)\n\
           let hot x = helper x" );
      ]
  in
  check "helper allocation reached from hot root" 1 (count_rule "A001" fs);
  let f = List.find (fun (f : Finding.t) -> f.rule = "A001") fs in
  checkb "attributed to the hot root" true
    (let rec contains i =
       i + 5 <= String.length f.message
       && (String.sub f.message i 5 = "'hot'" || contains (i + 1))
     in
     contains 0)

let test_a001_error_path_exempt_negative () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "(* lint: hot *)\n\
           let check v lim =\n\
          \  if v > lim then\n\
          \    invalid_arg (Printf.sprintf \"check: %d over %d\" v lim)" );
      ]
  in
  check "error path is exempt" 0 (count_rule "A001" fs)

(* ------------------------------------------------------------------ *)
(* A002: polymorphic comparison on a hot path                           *)
(* ------------------------------------------------------------------ *)

let test_a002_hot_and_loop_positive () =
  (* bare min in a hot root, Stdlib.max in a loop body, compare passed
     as a function value in a while condition *)
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "(* lint: hot *)\n\
           let cap a b = min a b\n\
           let widest a =\n\
          \  let w = ref 0 in\n\
          \  for i = 0 to Array.length a - 1 do\n\
          \    w := Stdlib.max !w a.(i)\n\
          \  done;\n\
          \  !w\n\
           let scan a x =\n\
          \  let i = ref 0 in\n\
          \  while !i < Array.length a && compare a.(!i) x < 0 do incr i done;\n\
          \  !i" );
      ]
  in
  check "hot min, loop max, loop compare" 3 (count_rule "A002" fs)

let test_a002_transitive_positive () =
  (* the comparison lives in an unmarked, loop-free helper reached from
     the hot root; the finding names the root *)
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let larger a b = max a b\n\
           (* lint: hot *)\n\
           let hot a b = larger a b + 1" );
      ]
  in
  check "helper comparison reached from hot root" 1 (count_rule "A002" fs);
  let f = List.find (fun (f : Finding.t) -> f.rule = "A002") fs in
  checkb "attributed to the hot root" true
    (let rec contains i =
       i + 5 <= String.length f.message
       && (String.sub f.message i 5 = "'hot'" || contains (i + 1))
     in
     contains 0)

let test_a002_typed_and_cold_negative () =
  (* Int.min / Int.compare are typed; a comparison outside any loop in a
     cold function is not flagged, nor is a loop outside lib/, nor a
     module's own top-level max *)
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "(* lint: hot *)\n\
           let cap a b = Int.min a b\n\
           let order a = Array.sort Int.compare a\n\
           let cold a b = min a b\n\
           let sum a =\n\
          \  let s = ref 0 in\n\
          \  for i = 0 to Array.length a - 1 do s := Int.max !s a.(i) done;\n\
          \  !s" );
        ( "lib/fake/b.ml",
          "let max (a : int) b = if a >= b then a else b\n\
           let top a =\n\
          \  let s = ref 0 in\n\
          \  for i = 0 to Array.length a - 1 do s := max !s a.(i) done;\n\
          \  !s" );
        ( "bench/fake.ml",
          "let top a =\n\
          \  let s = ref 0 in\n\
          \  for i = 0 to Array.length a - 1 do s := max !s a.(i) done;\n\
          \  !s" );
      ]
  in
  check "typed, cold, shadowed and non-lib sites pass" 0
    (count_rule "A002" fs)

let test_a002_suppressed () =
  let report =
    run
      [
        ( "lib/fake/a.ml",
          "let lo a =\n\
          \  let m = ref infinity in\n\
          \  for i = 0 to Array.length a - 1 do\n\
          \    (* lint: allow A002 floats: Float.min treats NaN differently *)\n\
          \    m := min !m a.(i)\n\
          \  done;\n\
          \  !m" );
      ]
  in
  check "no fresh A002" 0 (count_rule "A002" (Engine.fresh report));
  let _, suppressed, _ = Engine.counts report in
  check "one site suppressed" 1 suppressed

(* ------------------------------------------------------------------ *)
(* H001: float equality                                                 *)
(* ------------------------------------------------------------------ *)

let test_h001_positive () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let degenerate x = x = 0.\n\
           let close a b = compare (a *. 2.) (float_of_int b)" );
      ]
  in
  check "literal and arithmetic operands flagged" 2 (count_rule "H001" fs)

let test_h001_negative () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let same a b = a = b\nlet zero n = n = 0\nlet lt x = x < 1.5" );
      ]
  in
  check "int equality and float ordering pass" 0 (count_rule "H001" fs)

(* ------------------------------------------------------------------ *)
(* S001: Obj.* / assert false in library code                           *)
(* ------------------------------------------------------------------ *)

let test_s001_positive () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let f = function Some x -> x | None -> assert false\n\
           let coerce x = Obj.magic x" );
      ]
  in
  check "assert false and Obj.magic flagged" 2 (count_rule "S001" fs)

let test_s001_outside_lib_negative () =
  let fs =
    fresh
      [
        ( "bench/a.ml",
          "let f = function Some x -> x | None -> assert false" );
      ]
  in
  check "bench code exempt from S001" 0 (count_rule "S001" fs)

(* ------------------------------------------------------------------ *)
(* call graph: submodule paths                                          *)
(* ------------------------------------------------------------------ *)

let graph_of ?(libraries = []) fixtures =
  let sources =
    List.map (fun (path, content) -> Source.of_string ~path content) fixtures
  in
  let parsed =
    List.filter_map
      (fun (s : Source.t) -> Option.map (fun a -> (s, a)) s.ast)
      sources
  in
  Callgraph.build (Project.build ~libraries sources) parsed

let pool_fixture =
  ( "lib/parallel/pool.ml",
    "let spawn () = 1\n\
     module Team = struct\n\
    \  let run_block () = spawn ()\n\
    \  let create () = run_block ()\n\
     end" )

let refs_of graph q =
  match Callgraph.find graph q with
  | Some d -> d.refs
  | None -> Alcotest.failf "%s is not a definition" q

let test_callgraph_intra_file_submodule () =
  let graph =
    graph_of
      [
        ( "lib/graph/traversal.ml",
          "module Heap = struct\n\
          \  let push h x = h := x :: !h\n\
           end\n\
           let dijkstra h = Heap.push h 0" );
      ]
  in
  checkb "dijkstra refs Traversal.Heap.push" true
    (List.mem "Traversal.Heap.push" (refs_of graph "Traversal.dijkstra"))

let test_callgraph_qualified_submodule () =
  let graph =
    graph_of
      ~libraries:[ ("lib/parallel", "parallel") ]
      [
        pool_fixture;
        ( "lib/congest/network.ml",
          "let run () = Parallel.Pool.Team.create ()" );
      ]
  in
  checkb "run refs Pool.Team.create" true
    (List.mem "Pool.Team.create" (refs_of graph "Network.run"));
  (* the chase reaches the toplevel helper, and lists the alias
     "Pool.run_block" of the unqualified call in [create] under its
     canonical name *)
  Alcotest.(check (list string))
    "reachable"
    [
      "Network.run"; "Pool.Team.create"; "Pool.Team.run_block"; "Pool.spawn";
    ]
    (Callgraph.reachable graph [ "Network.run" ])

(* ------------------------------------------------------------------ *)
(* U001: library value with no production caller                        *)
(* ------------------------------------------------------------------ *)

let u001_messages fs =
  List.filter_map
    (fun (f : Finding.t) ->
      if f.rule = "U001" then Some (Printf.sprintf "%d %s" f.line f.message)
      else None)
    fs

let test_u001_uncalled_value () =
  let fs =
    fresh
      [
        ("lib/fake/a.ml", "let used () = 1\nlet unused () = 2");
        ("bin/main.ml", "let () = ignore (A.used ())");
      ]
  in
  check "one finding" 1 (count_rule "U001" fs);
  let f = List.find (fun (f : Finding.t) -> f.rule = "U001") fs in
  check "at the definition" 2 f.line;
  checkb "names the value" true
    (String.starts_with ~prefix:"A.unused has no production caller" f.message)

let test_u001_transitive () =
  (* [helper] is called, but only from [dead] *)
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let helper () = 1\nlet dead () = helper ()\nlet live () = 2" );
        ("bench/main.ml", "let run () = A.live ()\nlet () = run ()");
      ]
  in
  Alcotest.(check (list int))
    "helper and dead flagged" [ 1; 2 ]
    (List.filter_map
       (fun (f : Finding.t) -> if f.rule = "U001" then Some f.line else None)
       fs)

let test_u001_roots_negative () =
  let fs =
    fresh
      [
        ("lib/fake/a.ml", "let from_bin () = 1\nlet from_init () = 2");
        (* lib/ side effects are roots: a [let () =] body is not a def *)
        ("lib/fake/b.ml", "let setup () = A.from_init ()\nlet () = setup ()");
        ("bin/main.ml", "let () = print_int (A.from_bin ())");
      ]
  in
  Alcotest.(check (list string)) "no finding" [] (u001_messages fs)

let test_u001_submodule_path_negative () =
  (* [Pool.spawn] is reached only through [Parallel.Pool.Team.create] *)
  let fs =
    fresh
      ~libraries:[ ("lib/parallel", "parallel") ]
      [
        pool_fixture;
        ("bench_e2e/e2e.ml", "let () = ignore (Parallel.Pool.Team.create ())");
      ]
  in
  Alcotest.(check (list string)) "no finding" [] (u001_messages fs)

(* submodule values count: a dead [Sub.v] is a finding like a dead
   toplevel value *)
let submodule_fixture =
  ( "lib/fake/a.ml",
    "module Sub = struct\n\
    \  let v () = 1\n\
    \  let w () = v ()\n\
     end\n\
     let live () = 2" )

let test_u001_submodule_value_flagged () =
  let fs =
    fresh [ submodule_fixture; ("bin/main.ml", "let () = ignore (A.live ())") ]
  in
  Alcotest.(check (list string))
    "both submodule values flagged"
    [
      "2 A.Sub.v has no production caller";
      "3 A.Sub.w has no production caller";
    ]
    (List.map
       (fun m -> String.sub m 0 (String.index_from m 0 ':'))
       (u001_messages fs))

let test_u001_submodule_value_from_bin () =
  let fs =
    fresh
      [
        submodule_fixture;
        ("bin/main.ml", "let () = ignore (A.live (), A.Sub.v ())");
      ]
  in
  Alcotest.(check (list string))
    "only the uncalled one" [ "3" ]
    (List.map
       (fun m -> String.sub m 0 (String.index m ' '))
       (u001_messages fs))

let test_u001_submodule_short_name_call () =
  (* [w] reaches [v] by its short name inside [Sub] *)
  let fs =
    fresh
      [
        submodule_fixture;
        ("bin/main.ml", "let () = ignore (A.live (), A.Sub.w ())");
      ]
  in
  Alcotest.(check (list string)) "no finding" [] (u001_messages fs)

let test_u001_allow_comment () =
  let report =
    run
      [
        ( "lib/fake/a.ml",
          "(* lint: allow U001 test oracle: checks outputs *)\n\
           let check () = true" );
      ]
  in
  let fresh_count, suppressed, _ = Engine.counts report in
  check "nothing fresh" 0 fresh_count;
  check "oracle suppressed" 1 suppressed

(* ------------------------------------------------------------------ *)
(* suppression comments                                                 *)
(* ------------------------------------------------------------------ *)

let test_suppression_same_and_preceding_line () =
  let report =
    run
      [
        ( "lib/fake/a.ml",
          "let a () = Unix.gettimeofday () (* lint: allow D003 timing *)\n\
           (* lint: allow D003 timing *)\n\
           let b () = Unix.gettimeofday ()\n\
           let c () = Unix.gettimeofday ()" );
        (* a production caller, so U001 stays quiet *)
        ("bin/main.ml", "let () = ignore (A.a (), A.b (), A.c ())");
      ]
  in
  let fresh_count, suppressed, _ = Engine.counts report in
  check "third site still fires" 1 fresh_count;
  check "two sites suppressed" 2 suppressed

let test_suppression_wrong_rule_does_not_mask () =
  let fs =
    fresh
      [
        ( "lib/fake/a.ml",
          "let a () = Unix.gettimeofday () (* lint: allow D001 wrong id *)" );
      ]
  in
  check "allow for another rule does not mask" 1 (count_rule "D003" fs)

(* ------------------------------------------------------------------ *)
(* baseline round trip                                                  *)
(* ------------------------------------------------------------------ *)

let test_baseline_round_trip () =
  (* a production caller for every value, so U001 stays quiet *)
  let main =
    ("bin/main.ml", "let () = ignore (A.pick, A.degenerate, A.extra)")
  in
  let fixtures =
    [
      ( "lib/fake/a.ml",
        "let pick n = Random.int n\nlet degenerate x = x = 0." );
      main;
    ]
  in
  let before = fresh fixtures in
  check "two findings before baselining" 2 (List.length before);
  (* write baseline -> re-run -> zero new findings *)
  let baseline = Baseline.parse (Baseline.to_string (Baseline.of_findings before)) in
  let report = run ~baseline fixtures in
  let fresh_count, _, baselined = Engine.counts report in
  check "zero new findings" 0 fresh_count;
  check "both grandfathered" 2 baselined;
  (* a fresh finding on an unbaselined line still fails *)
  let fixtures2 =
    [
      ( "lib/fake/a.ml",
        "let pick n = Random.int n\n\
         let degenerate x = x = 0.\n\
         let extra () = Sys.time ()" );
      main;
    ]
  in
  check "new finding escapes the baseline" 1
    (List.length (fresh ~baseline fixtures2))

let has_sub s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_baseline_stale_entry () =
  (* the Random.int on line 1 was baselined, then fixed: its entry now
     matches nothing, and would silently grandfather the next D001 that
     lands on line 1 *)
  let main = ("bin/main.ml", "let () = ignore (A.pick, A.degenerate)") in
  let a body =
    [ ("lib/fake/a.ml", body ^ "\nlet degenerate x = x = 0."); main ]
  in
  let original = a "let pick n = Random.int n" in
  let baseline =
    Baseline.parse (Baseline.to_string (Baseline.of_findings (fresh original)))
  in
  checkb "no stale entry while both match" true
    (has_sub (Engine.to_json (run ~baseline original)) "\"stale\": 0,");
  let report = run ~baseline (a "let pick n = n - 1") in
  let fresh_count, _, baselined = Engine.counts report in
  check "nothing new" 0 fresh_count;
  check "the float compare stays grandfathered" 1 baselined;
  let json = Engine.to_json report in
  checkb "report counts the stale entry" true (has_sub json "\"stale\": 1,");
  checkb "report names it" true
    (has_sub json
       "{\"rule\": \"D001\", \"severity\": \"error\", \"file\": \
        \"lib/fake/a.ml\", \"line\": 1,");
  checkb "text names it" true
    (has_sub (Engine.to_text report)
       "lib/fake/a.ml:1:0: [D001] stale baseline entry")

let test_parse_error_is_a_finding () =
  let fs = fresh [ ("lib/fake/bad.ml", "let = ") ] in
  check "E000 reported" 1 (count_rule "E000" fs)

(* ------------------------------------------------------------------ *)
(* real-tree smoke: the shipped rule set stays clean on this repo       *)
(* ------------------------------------------------------------------ *)

let repo_root () =
  (* tests run from test/ inside _build; the repo sources sit two levels
     up only in the source tree, so walk upward until lib/ is found *)
  let rec up dir depth =
    if depth > 6 then None
    else if
      Sys.file_exists (Filename.concat dir "lib")
      && Sys.file_exists (Filename.concat dir "dune-project")
    then Some dir
    else up (Filename.dirname dir) (depth + 1)
  in
  up (Sys.getcwd ()) 0

let test_repo_tree_loads () =
  match repo_root () with
  | None -> () (* sandboxed test run without the tree; nothing to assert *)
  | Some root ->
      let sources, libraries =
        Engine.load_tree ~root ~dirs:[ "lib"; "bench"; "bench_e2e"; "bin" ]
          ()
      in
      checkb "found a library map" true (List.length libraries >= 5);
      checkb "found the sources" true (List.length sources >= 50);
      let report = Engine.analyze ~libraries sources in
      (* D-rules and the parallel-safety/allocation rules must be clean
         modulo inline suppressions; H001 and U001 may carry baseline entries,
         which appear as fresh here because we pass no baseline *)
      let hard =
        List.filter
          (fun (f : Finding.t) ->
            match f.rule with
            | "D001" | "D002" | "P001" | "P002" | "P003" | "A001" | "A002"
            | "E000" ->
                true
            | _ -> false)
          (Engine.fresh report)
      in
      checks "no hard findings"
        ""
        (String.concat "; " (List.map Finding.to_text hard))

(* the linter's own cross-jobs parity contract: fanning file loading and
   the per-file rules out over the domain pool must not change a byte of
   the report *)
let test_jobs_parity () =
  match repo_root () with
  | None -> ()
  | Some root ->
      let report_with jobs =
        let pool = Parallel.Pool.create ~jobs () in
        let sources, libraries =
          Engine.load_tree ~pool ~root
            ~dirs:[ "lib"; "bench"; "bench_e2e"; "bin" ]
            ()
        in
        Engine.to_json (Engine.analyze ~pool ~libraries sources)
      in
      checks "jobs 1 and jobs 4 reports byte-identical" (report_with 1)
        (report_with 4)

let () =
  let tc = Alcotest.test_case in
  let t name f = tc name `Quick f in
  Alcotest.run "analysis"
    [
      ( "d001",
        [
          t "global draws flagged" test_d001_positive;
          t "seeded state passes" test_d001_negative;
          t "make_self_init flagged" test_d001_self_init_state;
          t "seeded fault rng passes" test_d001_fault_rng_clean;
          t "global fault rng flagged" test_d001_fault_rng_global_flagged;
        ] );
      ( "d002",
        [
          t "unsorted fold flagged" test_d002_fold_positive;
          t "sorted fold passes" test_d002_fold_sorted_negative;
          t "commutative fold passes" test_d002_fold_commutative_negative;
          t "iter counter flagged" test_d002_iter_counter_positive;
          t "local accumulator passes" test_d002_iter_local_ref_negative;
        ] );
      ( "d003",
        [
          t "clocks flagged" test_d003_positive;
          t "no clock passes" test_d003_negative;
          t "Obs.Clock exempt" test_d003_obs_clock_exempt;
          t "other clock modules flagged" test_d003_other_clock_module_flagged;
        ] );
      ( "p001",
        [
          t "direct reach flagged" test_p001_direct_positive;
          t "pure task passes" test_p001_pure_negative;
          t "transitive reach flagged" test_p001_transitive_positive;
          t "wrapper forwarding flagged" test_p001_wrapper_positive;
          t "task-local state passes" test_p001_lambda_local_negative;
        ] );
      ( "p002",
        [
          t "captured ref flagged" test_p002_captured_ref_positive;
          t "task-local array passes" test_p002_task_local_array_negative;
          t "atomic counter passes" test_p002_atomic_counter_negative;
          t "Domain.spawn flagged" test_p002_domain_spawn_positive;
        ] );
      ( "p003",
        [
          t "get-then-set flagged" test_p003_get_then_set_positive;
          t "fetch_and_add passes" test_p003_fetch_and_add_negative;
          t "separate defs pass" test_p003_separate_defs_negative;
        ] );
      ( "a001",
        [
          t "allocating hot flagged" test_a001_allocating_hot_positive;
          t "non-allocating hot passes" test_a001_non_allocating_hot_negative;
          t "transitive helper flagged" test_a001_transitive_via_helper_positive;
          t "error path exempt" test_a001_error_path_exempt_negative;
        ] );
      ( "a002",
        [
          t "hot and loop sites flagged" test_a002_hot_and_loop_positive;
          t "transitive helper flagged" test_a002_transitive_positive;
          t "typed and cold pass" test_a002_typed_and_cold_negative;
          t "allow comment suppresses" test_a002_suppressed;
        ] );
      ( "h001",
        [
          t "float operands flagged" test_h001_positive;
          t "non-float passes" test_h001_negative;
        ] );
      ( "s001",
        [
          t "assert false and Obj flagged" test_s001_positive;
          t "bench exempt" test_s001_outside_lib_negative;
        ] );
      ( "callgraph",
        [
          t "intra-file submodule call" test_callgraph_intra_file_submodule;
          t "qualified submodule call" test_callgraph_qualified_submodule;
        ] );
      ( "u001",
        [
          t "uncalled value flagged" test_u001_uncalled_value;
          t "value reached only from dead code flagged" test_u001_transitive;
          t "bin and let () roots pass" test_u001_roots_negative;
          t "submodule path root passes" test_u001_submodule_path_negative;
          t "dead submodule value flagged" test_u001_submodule_value_flagged;
          t "submodule value called from bin passes"
            test_u001_submodule_value_from_bin;
          t "submodule short-name call passes"
            test_u001_submodule_short_name_call;
          t "allow comment suppresses" test_u001_allow_comment;
        ] );
      ( "engine",
        [
          t "suppression lines" test_suppression_same_and_preceding_line;
          t "suppression rule mismatch" test_suppression_wrong_rule_does_not_mask;
          t "baseline round trip" test_baseline_round_trip;
          t "stale baseline entry reported" test_baseline_stale_entry;
          t "parse error finding" test_parse_error_is_a_finding;
          t "repo tree clean" test_repo_tree_loads;
          t "cross-jobs parity" test_jobs_parity;
        ] );
    ]
