let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# expander-congest edge list\n";
  Buffer.add_string buf (Printf.sprintf "%d %d\n" (Graph.n g) (Graph.m g));
  Graph.iter_edges g (fun _ u v ->
      Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
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
          let edges =
            List.map
              (fun line ->
                match ints line with
                | [ u; v ] -> (u, v)
                | _ -> failwith "Graph_io.of_string: bad edge line")
              rest
          in
          Graph.of_edges n edges
      | _ -> failwith "Graph_io.of_string: header must be \"n m\"")

let save g ~path =
  let oc = open_out path in
  output_string oc (to_string g);
  close_out oc

let palette =
  [| "#4477aa"; "#ee6677"; "#228833"; "#ccbb44"; "#66ccee"; "#aa3377";
     "#bbbbbb"; "#999933"; "#882255"; "#44aa99" |]

let to_dot ~labels g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph G {\n  node [shape=circle, style=filled];\n";
  for v = 0 to Graph.n g - 1 do
    let color = palette.(labels.(v) mod Array.length palette) in
    Buffer.add_string buf
      (Printf.sprintf "  %d [fillcolor=\"%s\"];\n" v color)
  done;
  Graph.iter_edges g (fun _ u v ->
      Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
