open Linalg

type letter = S | T of int

let s_mat = Mat.of_lists [ [ 0; -1 ]; [ 1; 0 ] ]
let t_mat k = Elementary.u2 k

let eval letters =
  List.fold_left
    (fun acc l -> Mat.mul acc (match l with S -> s_mat | T k -> t_mat k))
    (Mat.identity 2) letters

let length letters =
  List.fold_left (fun acc l -> acc + match l with S -> 1 | T k -> abs k) 0 letters

(* L(k) = S T^k S^-1 up to sign; concretely
   S T^(-k) S^3 = L(k) since S^4 = Id and S L S^-1-style conjugation
   swaps the triangular types.  We verify the chosen identity below
   and lean on the assertion. *)
let l_word k =
  (* S * T^-k * S * S * S = L(k)?  Check: S T^(-k) S^3.  We assert at
     construction time, so a wrong identity cannot escape. *)
  [ S; T (-k); S; S; S ]

let word t =
  if not (Mat.is_square t) || Mat.rows t <> 2 then
    invalid_arg "Sl2word.word: expected 2x2";
  if Mat.det t <> 1 then invalid_arg "Sl2word.word: determinant must be 1";
  let factors = Decompose.euclid t in
  let letters =
    List.concat_map
      (fun f ->
        match Elementary.axis_of f with
        | Some 0 ->
          let k = Mat.get f 0 1 in
          if k = 0 then [] else [ T k ]
        | Some 1 ->
          let k = Mat.get f 1 0 in
          if k = 0 then [] else l_word k
        | _ -> if Mat.is_identity f then [] else invalid_arg "Sl2word: non-elementary factor")
      factors
  in
  assert (Mat.equal (eval letters) t);
  letters
