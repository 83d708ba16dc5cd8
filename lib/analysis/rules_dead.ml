(* U001: a library value with no production caller. The production
   program is every scanned file outside lib/ (bin/, bench/, bench_e2e/):
   every value any of their structure items references is a root, and so
   is every value a toplevel side-effect item of lib/ references, since
   [let () = ...] bodies are not call-graph definitions. A lib/
   definition, toplevel or inside a submodule, that Callgraph.reachable
   does not reach from those roots is dead surface: only tests, or
   nothing at all, call it. *)

open Parsetree
module SSet = Set.Make (String)

(* identifier paths under [str], resolved to project qnames *)
let refs project ~module_name (str : structure) =
  let acc = ref [] in
  Ast_scan.iter_expressions_str str (fun e ->
      match Ast_scan.path_of e with
      | Some comps -> (
          match Project.resolve project ~current_module:module_name comps with
          | Some q -> acc := q :: !acc
          | None -> ())
      | None -> ());
  !acc

(* the items of a lib/ structure that are not call-graph definitions:
   [let () = ...] and other non-variable bindings, bare expressions,
   functor applications; submodule structures are walked like the call
   graph walks them *)
let rec side_effect_refs project ~module_name (str : structure) =
  List.concat_map
    (fun (item : structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          if List.for_all (fun vb -> Ast_scan.pat_var vb.pvb_pat <> None) vbs
          then []
          else refs project ~module_name [ item ]
      | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure inner; _ }; _ }
        ->
          side_effect_refs project ~module_name inner
      | _ -> refs project ~module_name [ item ])
    str

let check ctx =
  let project = ctx.Rule.project in
  let graph = ctx.Rule.graph in
  let roots =
    List.concat_map
      (fun ((src : Source.t), str) ->
        let module_name = Source.module_name src in
        if Source.in_lib src then side_effect_refs project ~module_name str
        else refs project ~module_name str)
      ctx.Rule.sources
  in
  let live = SSet.of_list (Callgraph.reachable graph roots) in
  List.filter_map
    (fun (d : Callgraph.def) ->
      let file = d.loc.Location.loc_start.Lexing.pos_fname in
      if
        String.starts_with ~prefix:"lib/" file
        && not (SSet.mem d.qname live)
      then
        Some
          (Finding.v ~rule:"U001" ~severity:Finding.Warning ~loc:d.loc
             (Printf.sprintf
                "%s has no production caller: nothing in bin/, bench/ or \
                 bench_e2e/ reaches it; delete it, or keep a test oracle \
                 behind an allow comment naming what it checks"
                d.qname))
      else None)
    (Callgraph.defs graph)

let u001 =
  {
    Rule.id = "U001";
    severity = Finding.Warning;
    scope = Rule.Global;
    title = "library value with no production caller";
    doc =
      "Every value referenced by a scanned file outside lib/ (bin/, bench/, \
       bench_e2e/), from any structure item including let () = ..., is a \
       root, and so is every value a toplevel side-effect item of lib/ \
       references. A lib/ definition that the call graph does not reach \
       from those roots, whether toplevel or inside a submodule \
       (Module.Sub.value), is code no production path can run: tests may \
       call it, nothing else does.";
    fix =
      "Delete the value, its .mli entry and the tests that check only it. \
       A test oracle (a validity checker, a brute-force reference solver) \
       stays behind a 'lint: allow U001' comment naming what it checks. A \
       value waiting for a planned caller goes in the baseline.";
    check;
  }
