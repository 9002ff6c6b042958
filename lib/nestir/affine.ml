open Linalg

type t = { f : Mat.t; c : int array }

let make f c =
  if Array.length c <> Mat.rows f then
    invalid_arg "Affine.make: constant vector does not match matrix rows";
  { f; c }

let of_lists f c = make (Mat.of_lists f) (Array.of_list c)

let linear f = { f; c = Array.make (Mat.rows f) 0 }

let identity n = linear (Mat.identity n)

let dim_in t = Mat.cols t.f
let dim_out t = Mat.rows t.f

let apply t i =
  let fi = Mat.mul_vec t.f i in
  for k = 0 to Array.length fi - 1 do
    fi.(k) <- fi.(k) + t.c.(k)
  done;
  fi

let rank t = Ratmat.rank_of_mat t.f

let is_full_rank t = rank t = min (dim_in t) (dim_out t)

let is_translation t = Mat.is_identity t.f

let equal a b =
  Mat.equal a.f b.f && a.c = b.c

let pp ppf t =
  Format.fprintf ppf "%a + (%s)" Mat.pp_flat t.f
    (String.concat " " (Array.to_list (Array.map string_of_int t.c)))
