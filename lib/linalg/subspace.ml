(* A subspace is stored as a matrix whose columns form a basis (empty
   list for the zero space). *)

type t = { n : int; basis : Mat.t list }

(* Reduce a spanning list of columns to a basis. *)
let reduce n cols =
  match cols with
  | [] -> { n; basis = [] }
  | _ ->
    let stacked = List.fold_left Mat.hcat (List.hd cols) (List.tl cols) in
    (* pivot columns of the rref form a basis of the column space *)
    let _, pivots = Ratmat.rref (Ratmat.of_mat stacked) in
    let basis = List.map (fun j -> Mat.of_col (Mat.col stacked j)) pivots in
    { n; basis }

let kernel m = reduce (Mat.cols m) (Ratmat.kernel_of_mat m)

let basis s = s.basis

(* Intersection via kernels: x in A ∩ B iff x is in A and annihilated
   by any matrix whose kernel is B.  Build a matrix with kernel B from
   the rref of B's basis transpose: rows orthogonal... simpler: solve
   with parameters.  x = A y = B z: kernel of [A | -B] gives the
   coefficient pairs; the A-part spans the intersection. *)
let intersect a b =
  if a.n <> b.n then invalid_arg "Subspace.intersect: ambient dimension mismatch";
  match (a.basis, b.basis) with
  | [], _ | _, [] -> { n = a.n; basis = [] }
  | ca, cb ->
    let ma = List.fold_left Mat.hcat (List.hd ca) (List.tl ca) in
    let mb = List.fold_left Mat.hcat (List.hd cb) (List.tl cb) in
    let combined = Mat.hcat ma (Mat.neg mb) in
    let vectors =
      List.map
        (fun k ->
          (* k = (y; z): intersection vector = ma * y *)
          let y = Mat.sub_matrix k ~row:0 ~col:0 ~rows:(Mat.cols ma) ~cols:1 in
          Mat.mul ma y)
        (Ratmat.kernel_of_mat combined)
    in
    reduce a.n (List.filter (fun v -> not (Mat.is_zero v)) vectors)
