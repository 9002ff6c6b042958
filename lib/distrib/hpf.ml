let print (layout : Layout.t) =
  let scheme = function
    | Layout.Block -> "BLOCK"
    | Layout.Cyclic -> "CYCLIC"
    | Layout.Cyclic_block b -> Printf.sprintf "CYCLIC(%d)" b
    | Layout.Grouped k -> Printf.sprintf "GROUPED(%d)" k
  in
  "(" ^ String.concat ", " (Array.to_list (Array.map scheme layout)) ^ ")"
