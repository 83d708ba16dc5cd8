let to_string ?weights g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# expander-congest edge list\n";
  Buffer.add_string buf (Printf.sprintf "%d %d\n" (Graph.n g) (Graph.m g));
  Graph.iter_edges g (fun e u v ->
      match weights with
      | None -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v)
      | Some w ->
          Buffer.add_string buf
            (Printf.sprintf "%d %d %d\n" u v (Weights.get w e)));
  Buffer.contents buf

(* lint: allow U001 test oracle: round trip against save *)
let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [] -> failwith "Graph_io.of_string: empty input"
  | header :: rest -> (
      let ints line =
        String.split_on_char ' ' line
        |> List.filter (fun x -> x <> "")
        |> List.map (fun x ->
               try int_of_string x
               with _ ->
                 failwith
                   (Printf.sprintf "Graph_io.of_string: bad token %S" x))
      in
      match ints header with
      | [ n; m ] ->
          if List.length rest <> m then
            failwith
              (Printf.sprintf
                 "Graph_io.of_string: expected %d edge lines, got %d" m
                 (List.length rest));
          let parsed = List.map ints rest in
          let edges =
            List.map
              (function
                | [ u; v ] | [ u; v; _ ] -> (u, v)
                | _ -> failwith "Graph_io.of_string: bad edge line")
              parsed
          in
          let g = Graph.of_edges n edges in
          let all_weighted =
            parsed <> [] && List.for_all (fun l -> List.length l = 3) parsed
          in
          let weights =
            if not all_weighted then None
            else begin
              let arr = Array.make (Graph.m g) 1 in
              List.iter
                (function
                  | [ u; v; w ] ->
                      if u <> v then
                        arr.(Graph.find_edge g u v) <- w
                  | _ -> ())
                parsed;
              Some (Weights.of_array g arr)
            end
          in
          (g, weights)
      | _ -> failwith "Graph_io.of_string: header must be \"n m\"")

let save ?weights g ~path =
  let oc = open_out path in
  output_string oc (to_string ?weights g);
  close_out oc

let load ~path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  of_string s

let palette =
  [| "#4477aa"; "#ee6677"; "#228833"; "#ccbb44"; "#66ccee"; "#aa3377";
     "#bbbbbb"; "#999933"; "#882255"; "#44aa99" |]

let to_dot ?labels ?highlight g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph G {\n  node [shape=circle, style=filled];\n";
  for v = 0 to Graph.n g - 1 do
    let color =
      match labels with
      | None -> "#dddddd"
      | Some l -> palette.(l.(v) mod Array.length palette)
    in
    Buffer.add_string buf
      (Printf.sprintf "  %d [fillcolor=\"%s\"];\n" v color)
  done;
  let bold = Hashtbl.create 16 in
  Option.iter (List.iter (fun e -> Hashtbl.replace bold e ())) highlight;
  Graph.iter_edges g (fun e u v ->
      if Hashtbl.mem bold e then
        Buffer.add_string buf
          (Printf.sprintf "  %d -- %d [penwidth=3, color=\"#cc3311\"];\n" u v)
      else Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
