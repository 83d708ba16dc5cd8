module SMap = Map.Make (String)
module SSet = Set.Make (String)

type entry = { path : string; module_name : string; library : string }

type t = {
  by_module : entry list SMap.t;
  wrappers : string SMap.t;  (* "Parallel" -> "parallel" *)
  submodules : SSet.t SMap.t;
      (* "Pool" -> {"Team"}: dotted paths of the [module X = struct ... end]
         bindings inside each file module, at any depth *)
}

(* the dotted paths of every structure submodule of [str] *)
let submodule_paths (str : Parsetree.structure) =
  let rec walk prefix acc (items : Parsetree.structure) =
    List.fold_left
      (fun acc (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_module
            { pmb_name = { txt = Some sub; _ };
              pmb_expr = { pmod_desc = Pmod_structure inner; _ };
              _;
            } ->
            let path = prefix @ [ sub ] in
            walk path (SSet.add (String.concat "." path) acc) inner
        | _ -> acc)
      acc items
  in
  walk [] SSet.empty str

let build ~libraries sources =
  let library_of_dir dir =
    match List.assoc_opt dir libraries with
    | Some name -> name
    | None -> Filename.basename dir
  in
  let all =
    List.map
      (fun (s : Source.t) ->
        {
          path = s.Source.path;
          module_name = Source.module_name s;
          library = library_of_dir (Filename.dirname s.Source.path);
        })
      sources
  in
  let by_module =
    List.fold_left
      (fun acc e ->
        let cur = Option.value (SMap.find_opt e.module_name acc) ~default:[] in
        SMap.add e.module_name (e :: cur) acc)
      SMap.empty all
  in
  let wrappers =
    List.fold_left
      (fun acc e ->
        SMap.add (String.capitalize_ascii e.library) e.library acc)
      SMap.empty all
  in
  let submodules =
    List.fold_left
      (fun acc (s : Source.t) ->
        match s.ast with
        | None -> acc
        | Some str ->
            let m = Source.module_name s in
            let cur = Option.value (SMap.find_opt m acc) ~default:SSet.empty in
            SMap.add m (SSet.union cur (submodule_paths str)) acc)
      SMap.empty sources
  in
  { by_module; wrappers; submodules }

let find_module t name =
  Option.value (SMap.find_opt name t.by_module) ~default:[]

let is_wrapper t name = SMap.find_opt name t.wrappers

let is_value_component s =
  String.length s > 0 && (s.[0] = Char.lowercase_ascii s.[0])

(* [["Team"; "create"]] under file module "Pool" is "Pool.Team.create"
   when Pool has a submodule Team: a run of module components naming a
   known submodule, then exactly one value component *)
let submodule_value t m comps =
  match List.rev comps with
  | v :: (_ :: _ as rev_mods)
    when is_value_component v
         && not (List.exists is_value_component rev_mods) -> (
      let sub = String.concat "." (List.rev rev_mods) in
      match SMap.find_opt m t.submodules with
      | Some subs when SSet.mem sub subs -> Some (m ^ "." ^ sub ^ "." ^ v)
      | _ -> None)
  | _ -> None

let resolve t ~current_module comps =
  match comps with
  | [ v ] when is_value_component v ->
      if find_module t current_module <> [] then
        Some (current_module ^ "." ^ v)
      else None
  | _ -> (
      (* a submodule of the current file shadows any project module *)
      match submodule_value t current_module comps with
      | Some q -> Some q
      | None ->
          let arr = Array.of_list comps in
          let n = Array.length arr in
          let rec scan i restrict_lib =
            if i >= n - 1 then None
            else
              let c = arr.(i) in
              if is_value_component c then None
              else
                let candidates = find_module t c in
                let candidates =
                  match restrict_lib with
                  | Some lib ->
                      let inside =
                        List.filter (fun e -> e.library = lib) candidates
                      in
                      if inside <> [] then inside else candidates
                  | None -> candidates
                in
                (* a library wrapper component narrows the next lookup *)
                let next () =
                  scan (i + 1)
                    (match is_wrapper t c with
                    | Some lib -> Some lib
                    | None -> restrict_lib)
                in
                if candidates = [] then next ()
                else if is_value_component arr.(i + 1) then
                  Some (c ^ "." ^ arr.(i + 1))
                else
                  match
                    submodule_value t c (List.filteri (fun j _ -> j > i) comps)
                  with
                  | Some q -> Some q
                  | None -> next ()
          in
          scan 0 None)
