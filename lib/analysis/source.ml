type prescan = {
  suppressions : (int * string) list;
  hot_lines : int list;
}

type t = {
  path : string;
  content : string;
  ast : Parsetree.structure option;
  parse_error : string option;
  suppressions : (int * string) list;
  hot_lines : int list;
}

(* Scan one line of text for a "lint:" marker; the comment syntax is
   checked loosely on purpose so the markers work inside any comment
   style. Two keywords exist:
     lint: allow RULE reason   — suppress RULE here / on the next line
     lint: hot                 — the binding on this (or the next) line is
                                 a hot-path root for A001 and A002 *)
type marker = Allow of string | Hot

let marker_of_line line =
  let text = "lint:" in
  let mlen = String.length text in
  let len = String.length line in
  let rec find i =
    if i + mlen > len then None
    else if String.sub line i mlen = text then Some (i + mlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some after ->
      let rec skip_ws i =
        if i < len && (line.[i] = ' ' || line.[i] = '\t') then skip_ws (i + 1)
        else i
      in
      let i = skip_ws after in
      let starts_with kw =
        let klen = String.length kw in
        i + klen <= len && String.sub line i klen = kw
      in
      if starts_with "hot" then Some Hot
      else if starts_with "allow" then begin
        let i = skip_ws (i + String.length "allow") in
        let is_rule_char c =
          (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
        in
        let rec stop j =
          if j < len && is_rule_char line.[j] then stop (j + 1) else j
        in
        let j = stop i in
        if j > i then Some (Allow (String.sub line i (j - i))) else None
      end
      else None

let prescan content =
  let lines = String.split_on_char '\n' content in
  let _, sup, hot =
    List.fold_left
      (fun (lnum, sup, hot) line ->
        match marker_of_line line with
        | Some (Allow rule) -> (lnum + 1, (lnum, rule) :: sup, hot)
        | Some Hot -> (lnum + 1, sup, lnum :: hot)
        | None -> (lnum + 1, sup, hot))
      (1, [], []) lines
  in
  { suppressions = List.rev sup; hot_lines = List.rev hot }

let of_string ?prescan:pre ~path content =
  let lexbuf = Lexing.from_string content in
  lexbuf.Lexing.lex_curr_p <-
    { Lexing.pos_fname = path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
  let ast, parse_error =
    match Parse.implementation lexbuf with
    | ast -> (Some ast, None)
    | exception e ->
        (None, Some (Printf.sprintf "parse error: %s" (Printexc.to_string e)))
  in
  let pre = match pre with Some p -> p | None -> prescan content in
  {
    path;
    content;
    ast;
    parse_error;
    suppressions = pre.suppressions;
    hot_lines = pre.hot_lines;
  }

let load ?file ~path () =
  let file = Option.value file ~default:path in
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  of_string ~path content

let module_name t =
  let base = Filename.remove_extension (Filename.basename t.path) in
  String.capitalize_ascii base

let suppressed t ~rule ~line =
  List.exists
    (fun (l, r) -> r = rule && (l = line || l = line - 1))
    t.suppressions

let hot_marked t ~line =
  List.exists (fun l -> l = line || l = line - 1) t.hot_lines
