(* entries keyed by (rule, file, line) *)
module KSet = Set.Make (struct
  type t = string * string * int

  let compare = compare
end)

type t = { keys : KSet.t; lines : string list }

let empty = { keys = KSet.empty; lines = [] }

let key (f : Finding.t) = (f.rule, f.file, f.line)

let parse content =
  let lines = String.split_on_char '\n' content in
  let keys =
    List.fold_left
      (fun acc line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then acc
        else
          match String.split_on_char '\t' line with
          | rule :: file :: ln :: _ -> (
              match int_of_string_opt ln with
              | Some l -> KSet.add (rule, file, l) acc
              | None -> acc)
          | _ -> acc)
      KSet.empty lines
  in
  { keys; lines }

let load path =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let content = really_input_string ic n in
    close_in ic;
    parse content
  end
  else empty

let mem t f = KSet.mem (key f) t.keys

let unmatched t findings =
  KSet.elements
    (List.fold_left (fun acc f -> KSet.remove (key f) acc) t.keys findings)

let of_findings findings =
  let sorted = List.sort_uniq Finding.order findings in
  let lines =
    "# lint baseline: grandfathered findings (rule<TAB>file<TAB>line<TAB>message)."
    :: "# Regenerate with: dune exec bin/lint.exe -- --write-baseline lint.baseline"
    :: List.map
         (fun (f : Finding.t) ->
           Printf.sprintf "%s\t%s\t%d\t%s" f.rule f.file f.line f.message)
         sorted
  in
  let keys = KSet.of_list (List.map key sorted) in
  { keys; lines }

let to_string t = String.concat "\n" t.lines ^ "\n"

let size t = KSet.cardinal t.keys
