open Linalg

let l2 l = Mat.of_lists [ [ 1; 0 ]; [ l; 1 ] ]
let u2 k = Mat.of_lists [ [ 1; k ]; [ 0; 1 ] ]

let special_rows m =
  (* rows that differ from the identity *)
  let n = Mat.rows m in
  let rows = ref [] in
  for i = n - 1 downto 0 do
    let differs = ref false in
    for j = 0 to n - 1 do
      if Mat.get m i j <> if i = j then 1 else 0 then differs := true
    done;
    if !differs then rows := i :: !rows
  done;
  !rows

let is_unirow m =
  Mat.is_square m
  &&
  match special_rows m with
  | [] -> true
  | [ i ] -> Mat.get m i i <> 0
  | _ -> false

let is_elementary m =
  Mat.is_square m
  &&
  match special_rows m with
  | [] -> true
  | [ i ] -> Mat.get m i i = 1
  | _ -> false

let axis_of m =
  if not (Mat.is_square m) then None
  else match special_rows m with [ i ] when Mat.get m i i = 1 -> Some i | _ -> None

let product = function
  | [] -> invalid_arg "Elementary.product: empty"
  | m :: rest -> List.fold_left Mat.mul m rest
