(* Recording runtime. Design constraints, in order:

   1. Disabled mode (the default) must cost one atomic load and a branch
      per instrumented site — hot paths stay hot.
   2. Recording must be domain-safe without locks: every mutable buffer
      is domain-local (Domain.DLS); the only shared cells are Atomics
      (the enabled flag, the reset epoch, and the buffer registry, which
      grows by CAS). Pooled tasks therefore record freely — there is no
      toplevel ref/Hashtbl for the P001 linter rule to reach, because
      there is none at all.
   3. The merged aggregate must be deterministic: per-domain rows are
      keyed by span path and merged with commutative/associative
      operations (Agg), so buffer registration order — which does depend
      on the scheduler — cannot leak into exported values.

   Snapshots are taken after parallel sections join (bench end, tests),
   so draining the registry races with nothing. *)

type args = (string * string) list

(* a completed-span slice, kept for the Chrome trace exporter *)
type event = {
  ev_name : string;
  ev_ts_ns : int;
  ev_dur_ns : int;
  ev_tid : int;
  ev_args : args;
}

(* per-path accumulation row; touched only by its owning domain *)
type row = {
  mutable r_count : int;
  r_sums : (string, int) Hashtbl.t;
  r_maxes : (string, int) Hashtbl.t;
  r_volatile : (string, int) Hashtbl.t;
}

type frame = {
  f_name : string;
  f_path : string list;  (* full path, outermost first *)
  f_key : string;  (* path_key f_path, precomputed at span push *)
  f_start_ns : int;
  f_start_words : float;
  f_args : args;
}

type dstate = {
  d_epoch : int;
  d_tid : int;
  mutable d_stack : frame list;
  mutable d_ambient : string list;
  mutable d_ambient_key : string;
  d_rows : (string, row) Hashtbl.t;
  mutable d_events : event list;
}

let enabled = Atomic.make false

let epoch = Atomic.make 0

let registry : dstate list Atomic.t = Atomic.make []

let rec register st =
  let cur = Atomic.get registry in
  (* lint: allow A001 one cons per domain registration, not per event *)
  if not (Atomic.compare_and_set registry cur (st :: cur)) then register st

let key : dstate option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let fresh_state ep =
  {
    d_epoch = ep;
    d_tid = (Domain.self () :> int);
    d_stack = [];
    d_ambient = [];
    d_ambient_key = "";
    (* lint: allow A001 built once per domain per epoch *)
    d_rows = Hashtbl.create 64;
    d_events = [];
  }

let state () =
  let ep = Atomic.get epoch in
  match Domain.DLS.get key with
  | Some st when st.d_epoch = ep -> st
  | _ ->
      let st = fresh_state ep in
      (* lint: allow A001 boxed once per domain per epoch *)
      Domain.DLS.set key (Some st);
      register st;
      st

(* lint: hot *)
let is_enabled () = Atomic.get enabled

let enable () = Atomic.set enabled true

let disable () = Atomic.set enabled false

let reset () =
  Atomic.incr epoch;
  Atomic.set registry []

(* ------------------------------------------------------------------ *)
(* recording primitives                                                 *)
(* ------------------------------------------------------------------ *)

let path_key path = String.concat "\x1f" path

(* [k] is a precomputed [path_key]: frames and the ambient path carry
   their key, so per-event recording does no string work *)
let row_of st k =
  match Hashtbl.find_opt st.d_rows k with
  | Some r -> r
  | None ->
      (* a row is built once per (domain, span path); every later hit for
         the same path takes the find_opt fast path above, so these
         allocations are amortized registration, not per-event cost *)
      let r =
        (* lint: allow A001 once per span path *)
        {
          r_count = 0;
          (* lint: allow A001 once per span path *)
          r_sums = Hashtbl.create 8;
          (* lint: allow A001 once per span path *)
          r_maxes = Hashtbl.create 4;
          (* lint: allow A001 once per span path *)
          r_volatile = Hashtbl.create 4;
        }
      in
      Hashtbl.replace st.d_rows k r;
      r

let bump tbl k v combine =
  match Hashtbl.find_opt tbl k with
  | Some cur -> Hashtbl.replace tbl k (combine cur v)
  | None -> Hashtbl.replace tbl k v

let current_path st =
  match st.d_stack with [] -> st.d_ambient | f :: _ -> f.f_path

let current_key st =
  match st.d_stack with [] -> st.d_ambient_key | f :: _ -> f.f_key

let set_ambient st path =
  st.d_ambient <- path;
  st.d_ambient_key <- path_key path

let add_sum name v =
  if is_enabled () then begin
    let st = state () in
    bump (row_of st (current_key st)).r_sums name v ( + )
  end

let add_max name v =
  if is_enabled () then begin
    let st = state () in
    bump (row_of st (current_key st)).r_maxes name v Int.max
  end

let add_volatile name v =
  if is_enabled () then begin
    let st = state () in
    bump (row_of st (current_key st)).r_volatile name v ( + )
  end

let span_begin st name args =
  let path = current_path st @ [ name ] in
  st.d_stack <-
    {
      f_name = name;
      f_path = path;
      f_key = path_key path;
      f_start_ns = Clock.now_ns ();
      f_start_words = Gc.minor_words ();
      f_args = args;
    }
    :: st.d_stack

let span_end st =
  match st.d_stack with
  | [] -> ()
  | f :: rest ->
      st.d_stack <- rest;
      let now = Clock.now_ns () in
      let dur = max 0 (now - f.f_start_ns) in
      let words = int_of_float (Gc.minor_words () -. f.f_start_words) in
      let r = row_of st f.f_key in
      r.r_count <- r.r_count + 1;
      bump r.r_volatile "ns" dur ( + );
      bump r.r_volatile "minor_w" (max 0 words) ( + );
      st.d_events <-
        {
          ev_name = f.f_name;
          ev_ts_ns = f.f_start_ns;
          ev_dur_ns = dur;
          ev_tid = st.d_tid;
          ev_args = f.f_args;
        }
        :: st.d_events

(* ------------------------------------------------------------------ *)
(* snapshot                                                             *)
(* ------------------------------------------------------------------ *)

let hashtbl_to_sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let split_key k = if k = "" then [] else String.split_on_char '\x1f' k

let row_node row =
  let map_of tbl =
    List.fold_left
      (fun acc (k, v) -> Agg.SMap.add k v acc)
      Agg.SMap.empty (hashtbl_to_sorted tbl)
  in
  {
    Agg.count = row.r_count;
    sums = map_of row.r_sums;
    maxes = map_of row.r_maxes;
    volatile = map_of row.r_volatile;
    children = Agg.SMap.empty;
  }

(* the merged deterministic aggregate plus every recorded trace slice *)
let snapshot () =
  let states = Atomic.get registry in
  let tree =
    List.fold_left
      (fun tree st ->
        List.fold_left
          (fun tree (k, row) -> Agg.add_at tree (split_key k) (row_node row))
          tree
          (hashtbl_to_sorted st.d_rows))
      Agg.empty states
  in
  let events =
    List.concat_map (fun st -> st.d_events) states
    |> List.sort (fun a b -> compare (a.ev_ts_ns, a.ev_tid) (b.ev_ts_ns, b.ev_tid))
  in
  (tree, events)
