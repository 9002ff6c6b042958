(* Square input takes the ordinary inverse: the normal equations
   square the entries, which the unchecked rational arithmetic can
   overflow. *)
let left_inverse x =
  let v = Mat.cols x in
  if v = Mat.rows x then Ratmat.inverse_mat x
  else if Ratmat.rank_of_mat x <> v then None
  else
    let xt = Mat.transpose x in
    let gram = Mat.mul xt x in
    match Ratmat.inverse_mat gram with
    | None -> None
    | Some gram_inv -> Some (Ratmat.mul gram_inv (Ratmat.of_mat xt))

(* Via the Smith form u f v = [diag(s); 0]: when every invariant factor
   is 1, g = v [Id | 0] u satisfies g f = Id. *)
let integer_left_inverse f =
  let r = Mat.rows f and c = Mat.cols f in
  if r < c then None
  else
    let { Smith.s; u; v } = Smith.decompose f in
    let factors_ok =
      let ok = ref true in
      for i = 0 to c - 1 do
        if Mat.get s i i <> 1 then ok := false
      done;
      !ok
    in
    if not factors_ok then None
    else
      let proj = Mat.make c r (fun i j -> if i = j then 1 else 0) in
      let g = Mat.mul (Mat.mul v proj) u in
      if Mat.is_identity (Mat.mul g f) then Some g else None
