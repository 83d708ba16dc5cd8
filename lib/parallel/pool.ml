type t = { jobs : int }

let sequential = { jobs = 1 }

let default_jobs () =
  match Sys.getenv_opt "EXPANDER_JOBS" with
  | Some s when String.trim s <> "" ->
      (* a malformed value must not silently fall back to the machine's
         domain count: parity-sensitive runs pin their worker count through
         this variable, and a typo (EXPANDER_JOBS=O, =0, =-2) changing the
         pool size unnoticed is exactly the failure mode to reject *)
      (match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | _ ->
          invalid_arg
            (Printf.sprintf
               "Parallel.Pool.default_jobs: EXPANDER_JOBS=%S is not a \
                positive integer"
               s))
  | Some _ | None -> Domain.recommended_domain_count ()

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  { jobs = max 1 jobs }

let jobs t = t.jobs

(* Worker domains set this flag so that nested maps run inline: the live
   domain count is bounded by the outermost pool's [jobs]. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let mapi pool f arr =
  let n = Array.length arr in
  let workers = min pool.jobs n in
  if workers <= 1 || Domain.DLS.get in_worker then
    (* sequential path: tasks still get their pool.task spans so the
       deterministic observability aggregate is identical at any jobs
       value (Obs.Span.task is a no-op while Obs is disabled) *)
    Array.mapi (fun i x -> Obs.Span.task i (fun () -> f i x)) arr
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let next = Atomic.make 0 in
    (* the fan-out caller's span path: installed as every worker domain's
       ambient path so a task aggregates under the same path whether it
       runs inline or on a fresh domain *)
    let span_base = Obs.Span.current_path () in
    let work () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          match Obs.Span.task i (fun () -> f i arr.(i)) with
          | v -> results.(i) <- Some v
          | exception e -> errors.(i) <- Some e
      done
    in
    let domains =
      Array.init (workers - 1) (fun _ ->
          (* single-writer discipline: a task writes only results.(i) and
             errors.(i) for indices i it claimed via Atomic.fetch_and_add,
             so no two domains ever touch the same slot *)
          (* lint: allow P002 slot i is written only by the claiming task *)
          Domain.spawn (fun () ->
              Domain.DLS.set in_worker true;
              Obs.Span.set_ambient span_base;
              work ()))
    in
    (* the calling domain is a worker too; flag it so its tasks also treat
       nested maps as sequential *)
    Domain.DLS.set in_worker true;
    let caller_error = match work () with () -> None | exception e -> Some e in
    Domain.DLS.set in_worker false;
    Array.iter Domain.join domains;
    (match caller_error with Some e -> raise e | None -> ());
    (* deterministic error choice: lowest-indexed failing task wins *)
    Array.iter (function Some e -> raise e | None -> ()) errors;
    (* lint: allow S001 every slot is filled once the workers join *)
    Array.map (function Some v -> v | None -> assert false) results
  end

let map pool f arr = mapi pool (fun _ x -> f x) arr

let map_list pool f l = Array.to_list (map pool f (Array.of_list l))

let map_reduce pool ~map:f ~reduce ~init arr =
  Array.fold_left reduce init (map pool f arr)

(* splitmix64-style finalizer: decorrelates seeds that differ in one bit.
   The multipliers are the 63-bit truncations of the usual constants. *)
let derive_seed base salt =
  let mix z =
    let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
    let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
    z lxor (z lsr 31)
  in
  mix (base + (salt * 0x1e3779b97f4a7c15)) land max_int

(* ------------------------------------------------------------------ *)
(* Persistent worker team                                              *)
(* ------------------------------------------------------------------ *)

(* A [Team] keeps its domains alive across many [run] calls so a
   round-loop (the sharded CONGEST simulator steps its shards once per
   simulated round) pays one mutex broadcast per round instead of one
   domain spawn per shard per round. Tasks are assigned statically by
   block partition, so the same task always lands on the same worker —
   no work stealing, no scheduling nondeterminism to reason about. *)
module Team = struct
  (* what workers run between generations; a plain function slot (not an
     option) so arming a generation stores [f] itself — wrapping in [Some]
     would box a fresh block every round on the barrier hot path *)
  let no_task (_ : int) = ()

  type state = {
    tasks : int;
    workers : int; (* spawned domains + the calling domain *)
    mutable fn : int -> unit;
    mutable generation : int;
    mutable unfinished : int; (* spawned workers still in the current gen *)
    mutable stopped : bool;
    errors : exn option array; (* per task, reset at each generation *)
    mu : Mutex.t;
    start : Condition.t;
    finished : Condition.t;
  }

  type team = { st : state; mutable domains : unit Domain.t array }

  (* worker [w]'s static block of tasks: the caller is worker 0. The
     block bounds are computed inline rather than returned from a helper:
     this runs once per worker per simulated round and a (lo, hi) tuple
     return would allocate on every call *)
  (* lint: hot *)
  let run_block st w f =
    let per = st.tasks / st.workers and extra = st.tasks mod st.workers in
    let lo = (w * per) + Int.min w extra in
    let hi = lo + per + if w < extra then 1 else 0 in
    for t = lo to hi - 1 do
      match f t with
      | () -> ()
      | exception e -> st.errors.(t) <- Some e
    done

  (* lint: hot *)
  let worker_loop st w =
    Domain.DLS.set in_worker true;
    let seen = ref 0 in
    Mutex.lock st.mu;
    let continue = ref true in
    while !continue do
      while (not st.stopped) && st.generation = !seen do
        Condition.wait st.start st.mu
      done;
      if st.stopped then continue := false
      else begin
        seen := st.generation;
        let f = st.fn in
        Mutex.unlock st.mu;
        run_block st w f;
        Mutex.lock st.mu;
        st.unfinished <- st.unfinished - 1;
        if st.unfinished = 0 then Condition.signal st.finished
      end
    done;
    Mutex.unlock st.mu

  let create pool ~tasks =
    if tasks < 0 then invalid_arg "Parallel.Pool.Team.create: tasks < 0";
    let workers =
      (* a nested team (created from inside a pool worker) spawns nothing:
         the outermost pool's [jobs] stays the live-domain bound *)
      if Domain.DLS.get in_worker then 1 else max 1 (min pool.jobs tasks)
    in
    let st =
      {
        tasks;
        workers;
        fn = no_task;
        generation = 0;
        unfinished = 0;
        stopped = false;
        errors = Array.make (max 1 tasks) None;
        mu = Mutex.create ();
        start = Condition.create ();
        finished = Condition.create ();
      }
    in
    let span_base = Obs.Span.current_path () in
    let domains =
      Array.init (workers - 1) (fun i ->
          Domain.spawn (fun () ->
              Obs.Span.set_ambient span_base;
              worker_loop st (i + 1)))
    in
    { st; domains }

  (* deterministic error choice: lowest-indexed failing task wins, the
     same contract as [mapi]. A plain loop, not Array.iteri — this sits
     on the per-round barrier path and must not build a closure *)
  (* lint: hot *)
  let raise_first st =
    for t = 0 to Array.length st.errors - 1 do
      match st.errors.(t) with
      | Some exn ->
          st.errors.(t) <- None;
          raise exn
      | None -> ()
    done

  (* lint: hot *)
  let run team f =
    let st = team.st in
    Array.fill st.errors 0 (Array.length st.errors) None;
    if st.workers <= 1 then begin
      (* inline path: same run-every-task-then-raise-lowest semantics as
         the parallel path, so a failure cannot change which tasks ran *)
      let was_worker = Domain.DLS.get in_worker in
      Domain.DLS.set in_worker true;
      for t = 0 to st.tasks - 1 do
        match f t with () -> () | exception e -> st.errors.(t) <- Some e
      done;
      Domain.DLS.set in_worker was_worker;
      raise_first st
    end
    else begin
      Mutex.lock st.mu;
      st.fn <- f;
      st.generation <- st.generation + 1;
      st.unfinished <- st.workers - 1;
      Condition.broadcast st.start;
      Mutex.unlock st.mu;
      let was_worker = Domain.DLS.get in_worker in
      Domain.DLS.set in_worker true;
      run_block st 0 f;
      Domain.DLS.set in_worker was_worker;
      Mutex.lock st.mu;
      while st.unfinished > 0 do
        Condition.wait st.finished st.mu
      done;
      st.fn <- no_task;
      Mutex.unlock st.mu;
      raise_first st
    end

  let shutdown team =
    let st = team.st in
    Mutex.lock st.mu;
    st.stopped <- true;
    Condition.broadcast st.start;
    Mutex.unlock st.mu;
    Array.iter Domain.join team.domains;
    team.domains <- [||]
end
