open Linalg

(* Select rank-many independent columns of d (pivot columns of the
   rref), giving a full-column-rank basis of the column space. *)
let column_basis d =
  (* pivot columns of rref(d) index a maximal independent column set *)
  let _, pivots = Ratmat.rref (Ratmat.of_mat d) in
  match pivots with
  | [] -> None
  | _ ->
    let cols = List.map (fun j -> Mat.of_col (Mat.col d j)) pivots in
    Some (List.fold_left Mat.hcat (List.hd cols) (List.tl cols))

let aligning_matrix d =
  match column_basis d with
  | None -> None
  | Some basis ->
    let { Hermite.q; _ } = Hermite.paper_right basis in
    Some (Unimodular.inverse q)
