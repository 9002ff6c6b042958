(* Solve A y = b over the integers via the Smith form of A:
   u A v = d  =>  A = u^-1 d v^-1, so A y = b <=> d (v^-1 y) = u b. *)
let solve_linear_int (a : Mat.t) (b : int array) : int array option =
  let m = Mat.rows a and n = Mat.cols a in
  let { Smith.s; u; v } = Smith.decompose a in
  let ub = Mat.mul_vec u b in
  let z = Array.make n 0 in
  let ok = ref true in
  for i = 0 to m - 1 do
    if i < min m n && Mat.get s i i <> 0 then begin
      if ub.(i) mod Mat.get s i i <> 0 then ok := false
      else z.(i) <- ub.(i) / Mat.get s i i
    end
    else if ub.(i) <> 0 then ok := false
  done;
  if !ok then Some (Mat.mul_vec v z) else None
