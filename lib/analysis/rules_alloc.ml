(* Hot-path rules: A001, allocation on a hot path, and A002, polymorphic
   comparison on a hot path or in a loop body (its own header is further
   down). Both walk the same hot reach.

   A001. A binding marked [(* lint: hot *)] is
   a per-event / per-message inner-loop function: the sharded simulator's
   step and push helpers, the arena growth helper, the Team barrier.
   The PR-5/6 performance claims assume these paths allocate nothing per
   call, so any AST-level allocation site in a hot root — or in any
   project function it calls, transitively — is a finding.

   Heuristic boundaries, chosen to keep the rule quiet on honest code:

   - [ref] cells are NOT counted: the compiler unboxes local refs that
     do not escape (Simplif.eliminate_ref), and hot loops here use them
     exactly that way.
   - a named local function ([let go = fun ... in]) is transparent: the
     closure is built once per call of the enclosing function, not once
     per loop iteration, so the shell is free but its BODY is scanned.
   - error paths are exempt: [raise] / [invalid_arg] / [failwith] /
     [assert] applications and [try]-handler branches allocate only when
     the hot path is already dead. The transitive chase also ignores
     references that appear only inside exempt subtrees.
   - structured constants ([Some 1], [("a", "b")]) are static data, not
     allocations. *)

open Parsetree
module SMap = Map.Make (String)
module SSet = Set.Make (String)

let skip_heads = [ "raise"; "raise_notrace"; "invalid_arg"; "failwith" ]

let is_skip_head comps =
  match comps with
  | [ op ] | [ "Stdlib"; op ] -> List.mem op skip_heads
  | _ -> false

(* allocating stdlib calls by callee-path suffix; [ref] deliberately
   absent (see header), [Atomic.make] absent (setup code, not loop code) *)
let alloc_call_modules =
  [
    ( "String",
      [
        "concat"; "sub"; "make"; "init"; "map"; "mapi"; "cat"; "trim";
        "escaped"; "uppercase_ascii"; "lowercase_ascii"; "split_on_char";
        "of_seq"; "to_seq";
      ] );
    ( "Array",
      [
        "make"; "init"; "append"; "copy"; "sub"; "of_list"; "to_list";
        "concat"; "map"; "mapi"; "make_matrix"; "of_seq"; "to_seq";
      ] );
    ( "Bytes",
      [
        "create"; "make"; "copy"; "sub"; "cat"; "of_string"; "to_string";
        "sub_string"; "extend";
      ] );
    ( "List",
      [
        "map"; "mapi"; "rev"; "append"; "rev_append"; "init"; "filter";
        "filter_map"; "concat"; "concat_map"; "sort"; "sort_uniq";
        "stable_sort"; "merge"; "split"; "combine"; "cons"; "of_seq";
        "to_seq";
      ] );
    ("Buffer", [ "create"; "contents"; "to_bytes" ]);
    ("Hashtbl", [ "create"; "copy"; "of_seq" ]);
    ("Queue", [ "create" ]);
    ("Stack", [ "create" ]);
  ]

let alloc_single_names =
  [ "^"; "@"; "string_of_int"; "string_of_float"; "string_of_bool" ]

let alloc_call comps =
  match comps with
  | [ op ] | [ "Stdlib"; op ] when List.mem op alloc_single_names ->
      Some (Printf.sprintf "allocating call %s" op)
  | _ -> (
      match
        List.find_opt
          (fun (m, fns) ->
            List.exists
              (fun fn ->
                Ast_scan.suffix_matches comps ~suffix:[ m; fn ]
                && List.length comps <= 3)
              fns)
          alloc_call_modules
      with
      | Some _ ->
          Some
            (Printf.sprintf "allocating call %s" (Ast_scan.path_str comps))
      | None -> (
          match comps with
          | ("Printf" | "Format") :: _ :: _ ->
              Some
                (Printf.sprintf "%s boxes its arguments"
                   (Ast_scan.path_str comps))
          | _ -> None))

(* structured constants are statically allocated *)
let rec is_static_const (e : expression) =
  match (Ast_scan.peel e).pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_construct (_, None) -> true
  | Pexp_construct (_, Some arg) -> is_static_const arg
  | Pexp_tuple es -> List.for_all is_static_const es
  | Pexp_variant (_, None) -> true
  | Pexp_variant (_, Some arg) -> is_static_const arg
  | _ -> false

(* the stdlib's polymorphic comparison functions: without a known
   operand type each call goes through the C comparator *)
let poly_cmp_names = [ "compare"; "min"; "max" ]

(* strip a definition's own leading fun shell: building that closure is a
   per-definition cost, not a per-call one *)
let rec strip_fun_shell (e : expression) =
  match (Ast_scan.peel e).pexp_desc with
  | Pexp_fun (_, _, _, body) -> strip_fun_shell body
  | _ -> Ast_scan.peel e

type site = { loc : Location.t; what : string }

type scan_state = {
  allocs : site list ref;
  cmps : site list ref;  (* bare or [Stdlib.] compare / min / max (A002) *)
  paths : string list list ref;  (* identifier paths seen OUTSIDE exempt
                                    subtrees, for the transitive chase *)
  arity_of : string list -> (string * int) option;
      (* resolve a callee to (qname, required positional params) for
         partial-application detection *)
}

(* allocation sites in [e], which is already inside a hot body (shells
   stripped by the caller) *)
let rec scan st (e : expression) =
  match e.pexp_desc with
  | Pexp_assert _ -> ()
  | Pexp_try (body, _handlers) -> scan st body
  | Pexp_let (_, vbs, body) ->
      List.iter
        (fun vb ->
          let rhs = Ast_scan.peel vb.pvb_expr in
          match rhs.pexp_desc with
          | Pexp_fun _ ->
              (* named local fun: shell free, body hot *)
              scan st (strip_fun_shell rhs)
          | Pexp_function cases -> List.iter (scan_case st) cases
          | _ -> scan st vb.pvb_expr)
        vbs;
      scan st body
  | Pexp_fun (_, default, _, body) ->
      (* an anonymous closure built mid-body IS a per-call allocation *)
      note st e.pexp_loc "closure";
      Option.iter (scan st) default;
      scan st body
  | Pexp_function cases ->
      note st e.pexp_loc "closure";
      List.iter (scan_case st) cases
  | Pexp_lazy body ->
      note st e.pexp_loc "lazy block";
      scan st body
  | Pexp_tuple es ->
      if not (is_static_const e) then note st e.pexp_loc "tuple";
      List.iter (scan st) es
  | Pexp_record (fields, base) ->
      note st e.pexp_loc "record";
      List.iter (fun (_, v) -> scan st v) fields;
      Option.iter (scan st) base
  | Pexp_array es ->
      if es <> [] then note st e.pexp_loc "array literal";
      List.iter (scan st) es
  | Pexp_construct ({ txt; _ }, Some arg) ->
      if not (is_static_const e) then begin
        let name = String.concat "." (Longident.flatten txt) in
        note st e.pexp_loc (Printf.sprintf "constructor %s" name)
      end;
      scan st arg
  | Pexp_variant (_, Some arg) ->
      if not (is_static_const e) then
        note st e.pexp_loc "polymorphic variant";
      scan st arg
  | Pexp_apply (f, args) -> (
      let head = Ast_scan.path_of (Ast_scan.peel f) in
      let effective_head =
        (* [raise @@ Foo x] and [x |> failwith]: dispatch through the
           pipe operators so the error-path carve-out still applies *)
        match (head, args) with
        | Some [ "@@" ], [ (_, l); _ ] ->
            Ast_scan.path_of (Ast_scan.head l)
        | Some [ "|>" ], [ _; (_, r) ] ->
            Ast_scan.path_of (Ast_scan.head r)
        | _ -> head
      in
      match effective_head with
      | Some comps when is_skip_head comps -> ()
      | _ ->
          (match head with
          | Some comps -> (
              (match alloc_call comps with
              | Some what -> note st e.pexp_loc what
              | None -> ());
              match st.arity_of comps with
              | Some (qname, required) ->
                  let given =
                    List.length
                      (List.filter
                         (fun (l, _) -> l = Asttypes.Nolabel)
                         args)
                  in
                  if given < required then
                    note st e.pexp_loc
                      (Printf.sprintf
                         "partial application of %s (%d of %d arguments)"
                         qname given required)
              | None -> ())
          | None -> ());
          scan st f;
          List.iter (fun (_, a) -> scan st a) args)
  | Pexp_match (scrut, cases) ->
      scan st scrut;
      List.iter (scan_case st) cases
  | Pexp_sequence (a, b) ->
      scan st a;
      scan st b
  | Pexp_ifthenelse (c, t, e') ->
      scan st c;
      scan st t;
      Option.iter (scan st) e'
  | Pexp_while (c, b) ->
      scan st c;
      scan st b
  | Pexp_for (_, lo, hi, _, b) ->
      scan st lo;
      scan st hi;
      scan st b
  | Pexp_setfield (r, _, v) ->
      scan st r;
      scan st v
  | Pexp_field (r, _) -> scan st r
  | Pexp_constraint (inner, _) | Pexp_coerce (inner, _, _) -> scan st inner
  | Pexp_newtype (_, inner) | Pexp_open (_, inner) -> scan st inner
  | Pexp_letmodule (_, _, body) | Pexp_letexception (_, body) ->
      scan st body
  | Pexp_ident { txt; _ } ->
      let comps = Longident.flatten txt in
      (match comps with
      | [ op ] | [ "Stdlib"; op ] when List.mem op poly_cmp_names ->
          st.cmps := { loc = e.pexp_loc; what = op } :: !(st.cmps)
      | _ -> ());
      st.paths := comps :: !(st.paths)
  | Pexp_constant _ | Pexp_construct (_, None) | Pexp_variant (_, None)
  | Pexp_unreachable | Pexp_extension _ ->
      ()
  | _ ->
      (* exotic nodes (objects, first-class modules, ...) do not appear on
         hot paths in this tree; stay silent rather than guess *)
      ()

and scan_case st (c : case) =
  (* [match ... with exception e -> ...] branches are error paths *)
  match c.pc_lhs.ppat_desc with
  | Ppat_exception _ -> ()
  | _ ->
      Option.iter (scan st) c.pc_guard;
      scan st c.pc_rhs

and note st loc what =
  st.allocs := { loc; what } :: !(st.allocs)

(* scan a definition body: strip the fun shell; a record of closures
   ([{ f = (fun ...); g = ... }]) is also shell — the record and its
   closures exist once, the closure BODIES are hot *)
let scan_def_body st body =
  let core = strip_fun_shell body in
  match core.pexp_desc with
  | Pexp_record (fields, base) ->
      List.iter
        (fun ((_, v) : Longident.t Location.loc * expression) ->
          match (Ast_scan.peel v).pexp_desc with
          | Pexp_fun _ -> scan st (strip_fun_shell v)
          | Pexp_function cases -> List.iter (scan_case st) cases
          | _ -> scan st v)
        fields;
      Option.iter (scan st) base
  | Pexp_function cases -> List.iter (scan_case st) cases
  | _ -> scan st core

let function_shaped (d : Callgraph.def) =
  d.params <> []
  ||
  match (Ast_scan.peel d.body).pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | _ -> false

(* hot-marked value bindings anywhere in a source (module level or local) *)
let hot_roots_of_source (src : Source.t) str =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          (match Ast_scan.pat_var vb.pvb_pat with
          | Some name
            when Source.hot_marked src
                   ~line:vb.pvb_loc.Location.loc_start.Lexing.pos_lnum ->
              acc := (name, vb) :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.value_binding self vb);
    }
  in
  it.structure it str;
  List.rev !acc

let new_scan_state arity_of =
  { allocs = ref []; cmps = ref []; paths = ref []; arity_of }

(* Walk every hot root and, transitively, every project function it
   references outside exempt subtrees; [visit ~root ~module_name st]
   receives the scan of each body reached, once per root. *)
let iter_hot_reach ctx visit =
  let project = ctx.Rule.project in
  let graph = ctx.Rule.graph in
  let arity_for module_name comps =
    match Project.resolve project ~current_module:module_name comps with
    | None -> None
    | Some q -> (
        match Callgraph.find graph q with
        | Some d ->
            let required =
              List.length
                (List.filter
                   (fun ((l : Asttypes.arg_label), _) -> l = Asttypes.Nolabel)
                   d.params)
            in
            if required > 0 then Some (q, required) else None
        | None -> None)
  in
  let rec chase ~root ~visited ~module_name body =
    let st = new_scan_state (arity_for module_name) in
    scan_def_body st body;
    visit ~root ~module_name st;
    List.iter
      (fun comps ->
        match Project.resolve project ~current_module:module_name comps with
        | None -> ()
        | Some q ->
            if not (SSet.mem q !visited) then begin
              visited := SSet.add q !visited;
              match Callgraph.find graph q with
              | Some d when function_shaped d ->
                  chase ~root ~visited ~module_name:d.module_name d.body
              | _ -> ()
            end)
      (List.rev !(st.paths))
  in
  List.iter
    (fun ((src : Source.t), str) ->
      List.iter
        (fun (name, (vb : value_binding)) ->
          let visited = ref SSet.empty in
          chase ~root:name ~visited
            ~module_name:(Source.module_name src)
            vb.pvb_expr)
        (hot_roots_of_source src str))
    ctx.Rule.sources

(* findings deduplicated by site: a helper reached from several roots,
   or a loop nested in a loop, is reported once *)
let site_reporter ~rule =
  let findings = ref [] in
  let reported = ref SSet.empty in
  let emit (site : site) message =
    let p = site.loc.Location.loc_start in
    let key =
      Printf.sprintf "%s:%d:%d:%s" p.Lexing.pos_fname p.Lexing.pos_lnum
        (p.Lexing.pos_cnum - p.Lexing.pos_bol)
        site.what
    in
    if not (SSet.mem key !reported) then begin
      reported := SSet.add key !reported;
      findings :=
        Finding.v ~rule ~severity:Finding.Warning ~loc:site.loc message
        :: !findings
    end
  in
  (emit, fun () -> List.rev !findings)

let a001_check ctx =
  let emit, findings = site_reporter ~rule:"A001" in
  iter_hot_reach ctx (fun ~root ~module_name:_ st ->
      List.iter
        (fun (a : site) ->
          emit a
            (Printf.sprintf
               "%s on the hot path rooted at '%s'; hot functions must not \
                allocate per call — hoist the value, reuse a preallocated \
                buffer, or drop the hot marker if the cost is intended"
               a.what root))
        (List.rev !(st.allocs)));
  findings ()

let a001 =
  {
    Rule.id = "A001";
    severity = Finding.Warning;
    scope = Rule.Global;
    title = "allocation on a hot path";
    doc =
      "A [lint: hot] marker declares a function to be per-event inner-loop \
       code whose zero-allocation behavior the performance claims rest on \
       (the sharded simulator's step and push helpers, arena growth, \
       the Team barrier). The rule scans the marked body and every project \
       function it calls, transitively, for AST-level allocation sites: \
       constructors with arguments, tuples, records, closures built \
       mid-body, array/list literals, string concatenation, allocating \
       stdlib calls, partial applications and Printf boxing. Error paths \
       (raise/invalid_arg/failwith/assert and try-handlers) are exempt, as \
       are local refs (unboxed by the compiler) and once-per-definition \
       closure shells.";
    fix =
      "Hoist the allocation out of the loop: preallocate buffers in the \
       enclosing setup and reuse them, return results through caller-owned \
       mutable slots instead of tuples or options, saturate partial \
       applications. Growth sites of amortized structures (doubling an \
       array) are legitimate — keep them behind an allow comment naming \
       the amortization argument.";
    check = a001_check;
  }

(* ------------------------------------------------------------------ *)
(* A002: polymorphic comparison on a hot path                           *)
(* ------------------------------------------------------------------ *)

(* A002. Bare or [Stdlib.]-qualified [compare], [min] and [max] are
   polymorphic: unless the type checker knows the operand type at the
   call, each use is a call into the C comparator ([caml_compare],
   [caml_lessequal], ...), and [min] / [max] are out-of-line calls even
   on ints. The rule flags them in two places: everywhere A001 looks (hot
   roots and what they reach, with the same error-path exemptions), and
   in the bodies of [for] / [while] loops of library code (a [while]
   condition counts; a [for] loop's bounds, evaluated once, do not).
   Operator comparisons ([<], [=], ...) on unannotated operands are the
   same cost but invisible to a syntactic rule; those are pinned with
   type annotations instead. A module's own top-level [compare] / [min] /
   [max] is not the stdlib's and is skipped. *)

(* every loop body (with its condition, for [while]) in a structure *)
let loop_bodies str =
  let acc = ref [] in
  Ast_scan.iter_expressions_str str (fun e ->
      match e.pexp_desc with
      | Pexp_for (_, _, _, _, body) -> acc := body :: !acc
      | Pexp_while _ -> acc := e :: !acc
      | _ -> ());
  List.rev !acc

let a002_check ctx =
  let graph = ctx.Rule.graph in
  let emit, findings = site_reporter ~rule:"A002" in
  let stdlib_cmps ~module_name st =
    List.filter
      (fun (c : site) ->
        Callgraph.find graph (module_name ^ "." ^ c.what) = None)
      (List.rev !(st.cmps))
  in
  let fix what =
    Printf.sprintf
      "use Int.%s / Float.%s or a typed comparator, or keep it with a \
       'lint: allow A002' comment giving the reason"
      what what
  in
  iter_hot_reach ctx (fun ~root ~module_name st ->
      List.iter
        (fun (c : site) ->
          emit c
            (Printf.sprintf
               "polymorphic %s on the hot path rooted at '%s'; %s" c.what
               root (fix c.what)))
        (stdlib_cmps ~module_name st));
  List.iter
    (fun ((src : Source.t), str) ->
      if Source.in_lib src then
        List.iter
          (fun body ->
            let st = new_scan_state (fun _ -> None) in
            scan st body;
            List.iter
              (fun (c : site) ->
                emit c
                  (Printf.sprintf "polymorphic %s in a loop body; %s" c.what
                     (fix c.what)))
              (stdlib_cmps ~module_name:(Source.module_name src) st))
          (loop_bodies str))
    ctx.Rule.sources;
  findings ()

let a002 =
  {
    Rule.id = "A002";
    severity = Finding.Warning;
    scope = Rule.Global;
    title = "polymorphic comparison on a hot path";
    doc =
      "Bare or Stdlib-qualified compare, min and max are polymorphic. \
       Without flambda, min and max are out-of-line calls whose body runs \
       the C comparator, and compare is one unless its operand type is \
       known where it is applied. The rule flags them on hot paths (the \
       A001 reach: lint: hot roots and the project functions they call, \
       transitively) and in the bodies of for / while loops in lib/.";
    fix =
      "Use the typed function: Int.min, Int.max, Int.compare for ints, \
       String.compare for strings. Float.min / Float.max treat NaN \
       differently from Stdlib.min / Stdlib.max, so float and structural \
       sites keep their comparison behind a 'lint: allow A002' comment \
       that says why.";
    check = a002_check;
  }
