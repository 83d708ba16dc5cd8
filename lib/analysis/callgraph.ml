module SMap = Map.Make (String)
module SSet = Set.Make (String)

type def = {
  qname : string;
  module_name : string;
  name : string;
  loc : Location.t;
  mutable_kind : string option;
  params : (Asttypes.arg_label * string option) list;
  body : Parsetree.expression;
  refs : string list;
}

type t = {
  by_qname : def SMap.t;
  aliases : string SMap.t;
      (* "Pool.run_block" -> "Pool.Team.run_block": submodule values are
         also reachable under their file-module-qualified short name, which
         is what Project.resolve produces for an unqualified reference
         inside the submodule's own body *)
}

(* constructors whose application at a toplevel binding makes the binding
   shared mutable state (a data race when reached from pooled tasks) *)
let mutable_ctors =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Buffer"; "create" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
    [ "Array"; "make" ];
    [ "Array"; "init" ];
    [ "Array"; "create_float" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
  ]

let mutable_kind_of body =
  let body = Ast_scan.peel body in
  match body.Parsetree.pexp_desc with
  | Pexp_apply (f, _) -> (
      match Ast_scan.path_of (Ast_scan.peel f) with
      | Some comps
        when List.exists
               (fun ctor -> Ast_scan.suffix_matches comps ~suffix:ctor)
               mutable_ctors
             && List.length comps <= 3 ->
          Some (Ast_scan.path_str comps)
      | _ -> None)
  | _ -> None

let resolve_refs project ~current_module body =
  let seen = ref SSet.empty in
  List.iter
    (fun comps ->
      match Project.resolve project ~current_module comps with
      | Some q -> seen := SSet.add q !seen
      | None -> ())
    (Ast_scan.collect_paths body);
  SSet.elements !seen

let build project sources =
  let by_qname = ref SMap.empty in
  let aliases = ref SMap.empty in
  List.iter
    (fun ((src : Source.t), str) ->
      let m = Source.module_name src in
      (* walk structure items, descending into nested modules so values
         inside [module Team = struct ... end] become defs too; [mpath] is
         the submodule path below the file module *)
      let rec walk mpath (items : Parsetree.structure) =
        List.iter
          (fun (item : Parsetree.structure_item) ->
            match item.pstr_desc with
            | Pstr_value (_, vbs) ->
                List.iter
                  (fun (vb : Parsetree.value_binding) ->
                    match Ast_scan.pat_var vb.pvb_pat with
                    | None -> ()
                    | Some name ->
                        let qname =
                          String.concat "." ((m :: mpath) @ [ name ])
                        in
                        let d =
                          {
                            qname;
                            module_name = m;
                            name;
                            loc = vb.pvb_loc;
                            mutable_kind = mutable_kind_of vb.pvb_expr;
                            params = Ast_scan.params_of vb.pvb_expr;
                            body = vb.pvb_expr;
                            refs =
                              resolve_refs project ~current_module:m
                                vb.pvb_expr;
                          }
                        in
                        if not (SMap.mem qname !by_qname) then begin
                          by_qname := SMap.add qname d !by_qname;
                          (* unqualified references inside the submodule
                             resolve to "File.value"; point that short name
                             here unless a toplevel value owns it *)
                          if mpath <> [] then begin
                            let short = m ^ "." ^ name in
                            if not (SMap.mem short !aliases) then
                              aliases := SMap.add short qname !aliases
                          end
                        end)
                  vbs
            | Pstr_module mb -> (
                match (mb.pmb_name.txt, mb.pmb_expr.Parsetree.pmod_desc) with
                | Some sub, Pmod_structure inner ->
                    walk (mpath @ [ sub ]) inner
                | _ -> ())
            | _ -> ())
          items
      in
      walk [] str)
    sources;
  (* an alias must never shadow a genuine toplevel value *)
  let aliases =
    SMap.filter (fun short _ -> not (SMap.mem short !by_qname)) !aliases
  in
  { by_qname = !by_qname; aliases }

let find t q =
  match SMap.find_opt q t.by_qname with
  | Some d -> Some d
  | None -> (
      match SMap.find_opt q t.aliases with
      | Some primary -> SMap.find_opt primary t.by_qname
      | None -> None)

let defs t = List.map snd (SMap.bindings t.by_qname)

let reachable t seeds =
  let rec go visited = function
    | [] -> visited
    | q :: rest -> (
        match find t q with
        | None -> go (SSet.add q visited) rest
        | Some d ->
            (* visit under the canonical qname, never an alias *)
            if SSet.mem d.qname visited then go visited rest
            else go (SSet.add d.qname visited) (d.refs @ rest))
  in
  SSet.elements (go SSet.empty seeds)

let reachable_mutable t seeds =
  List.filter_map
    (fun q ->
      match find t q with
      | Some d when d.mutable_kind <> None -> Some d
      | _ -> None)
    (reachable t seeds)
