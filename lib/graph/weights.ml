type t = int array

let validate a =
  Array.iter
    (fun w ->
      if w <= 0 then invalid_arg "Weights: weights must be positive integers")
    a

let of_array g a =
  if Array.length a <> Graph.m g then
    invalid_arg "Weights.of_array: length mismatch";
  validate a;
  Array.copy a

let random g ~max_w ~seed =
  if max_w <= 0 then invalid_arg "Weights.random: max_w must be positive";
  let st = Random.State.make [| seed |] in
  Array.init (Graph.m g) (fun _ -> 1 + Random.State.int st max_w)

let get w e = w.(e)

let max_weight w = Array.fold_left max 0 w

let restrict w (mapping : Graph_ops.mapping) =
  Array.map (fun orig -> w.(orig)) mapping.edge_to_orig
