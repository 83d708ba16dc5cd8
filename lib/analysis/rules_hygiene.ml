(* H001 float equality, S001 Obj/assert-false in library code. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* H001: float equality                                                 *)
(* ------------------------------------------------------------------ *)

let eq_ops = [ "="; "<>"; "=="; "!=" ]

let h001_check ctx =
  Rule.per_source ctx (fun _src str ->
      let acc = ref [] in
      Ast_scan.iter_expressions_str str (fun e ->
          match e.pexp_desc with
          | Pexp_apply (op, [ (_, a); (_, b) ]) -> (
              match Ast_scan.path_of op with
              | Some [ o ] when List.mem o eq_ops ->
                  if Ast_scan.is_floatish a || Ast_scan.is_floatish b then
                    acc :=
                      Finding.v ~rule:"H001" ~severity:Finding.Warning
                        ~loc:e.pexp_loc
                        (Printf.sprintf
                           "(%s) on a float expression is exact equality; \
                            compare against a tolerance, or suppress if the \
                            value is an exact sentinel"
                           o)
                      :: !acc
              | Some comps
                when Ast_scan.suffix_matches comps ~suffix:[ "compare" ]
                     && List.length comps <= 2 ->
                  if Ast_scan.is_floatish a || Ast_scan.is_floatish b then
                    acc :=
                      Finding.v ~rule:"H001" ~severity:Finding.Warning
                        ~loc:e.pexp_loc
                        "polymorphic compare on float expressions; use \
                         Float.compare with an explicit tolerance policy"
                      :: !acc
              | _ -> ())
          | _ -> ());
      List.rev !acc)

let h001 =
  {
    Rule.id = "H001";
    severity = Finding.Warning;
    scope = Rule.Per_source;
    title = "float equality";
    doc =
      "Exact =/<>/compare on floats is almost always a rounding bug waiting \
       for a different optimization level or evaluation order. Equality \
       against exact sentinels (0., 1., infinity) is legitimate but must be \
       visible: suppress the finding or grandfather it in the baseline.";
    fix =
      "Compare with an explicit tolerance (Float.abs (a -. b) <= eps) \
       chosen from the quantity's scale, or Float.compare for orderings; \
       exact-sentinel comparisons keep the operator but carry a lint \
       allow comment naming the sentinel.";
    check = h001_check;
  }

(* ------------------------------------------------------------------ *)
(* S001: Obj.* / assert false in library code                           *)
(* ------------------------------------------------------------------ *)

let s001_check ctx =
  Rule.per_source ctx (fun src str ->
      if not (Source.in_lib src) then []
      else begin
        let acc = ref [] in
        Ast_scan.iter_expressions_str str (fun e ->
            match e.pexp_desc with
            | Pexp_assert inner -> (
                match (Ast_scan.peel inner).pexp_desc with
                | Pexp_construct ({ txt = Longident.Lident "false"; _ }, None)
                  ->
                    acc :=
                      Finding.v ~rule:"S001" ~severity:Finding.Warning
                        ~loc:e.pexp_loc
                        "assert false dies without context; raise \
                         invalid_arg / a dedicated exception describing the \
                         offending input, or suppress if the branch is \
                         unreachable by construction"
                      :: !acc
                | _ -> ())
            | _ -> (
                match Ast_scan.path_of e with
                | Some ("Obj" :: _ :: _) ->
                    acc :=
                      Finding.v ~rule:"S001" ~severity:Finding.Warning
                        ~loc:e.pexp_loc
                        "Obj.* subverts the type system; library code must \
                         not depend on representation details"
                      :: !acc
                | _ -> ()));
        List.rev !acc
      end)

let s001 =
  {
    Rule.id = "S001";
    severity = Finding.Warning;
    scope = Rule.Per_source;
    title = "Obj.* / assert false in library code";
    doc =
      "Library entry points are exercised with adversarial inputs by the \
       CONGEST simulator and the bench grid; anonymous aborts (assert \
       false) and representation tricks (Obj.*) turn bad inputs into \
       undiagnosable failures. Reachable branches must raise a described \
       error; genuinely unreachable ones carry an allow comment saying why.";
    fix =
      "Raise invalid_arg / failwith with a message naming the offending \
       input instead of assert false; delete the Obj.* use or move the \
       trick behind a described, allow-commented boundary if it is truly \
       unavoidable.";
    check = s001_check;
  }
