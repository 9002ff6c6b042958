open Linalg

(* Column-Euclid on column [col], clearing entries below the diagonal
   using determinant-1 row operations (recorded as their inverses). *)
let decompose t =
  if not (Mat.is_square t) then invalid_arg "Gendet.decompose: non-square";
  if Mat.det t = 0 then invalid_arg "Gendet.decompose: singular";
  let n = Mat.rows t in
  let cur = ref t in
  let ops = ref [] in
  let apply_left_elem ~axis ~other ~coef =
    (* row axis += coef * row other; recorded op is its inverse *)
    let e = Mat.make n n (fun i j ->
        if i = j then 1 else if i = axis && j = other then coef else 0)
    in
    let einv = Mat.make n n (fun i j ->
        if i = j then 1 else if i = axis && j = other then -coef else 0)
    in
    cur := Mat.mul e !cur;
    ops := einv :: !ops
  in
  for col = 0 to n - 2 do
    let continue = ref true in
    while !continue do
      (* find the entry of minimal non-zero absolute value at or below
         the diagonal in this column *)
      let piv = ref (-1) in
      for i = col to n - 1 do
        if Mat.get !cur i col <> 0
           && (!piv = -1 || abs (Mat.get !cur i col) < abs (Mat.get !cur !piv col))
        then piv := i
      done;
      assert (!piv >= 0);
      if !piv <> col then begin
        (* bring a small entry to the diagonal: reduce the diagonal
           entry modulo the pivot (or import the pivot when zero) *)
        let acc = Mat.get !cur col col in
        let apv = Mat.get !cur !piv col in
        if acc = 0 then apply_left_elem ~axis:col ~other:!piv ~coef:1
        else apply_left_elem ~axis:col ~other:!piv ~coef:(-(acc / apv))
      end
      else begin
        let p = Mat.get !cur col col in
        let dirty = ref false in
        for i = col + 1 to n - 1 do
          let v = Mat.get !cur i col in
          if v <> 0 then begin
            apply_left_elem ~axis:i ~other:col ~coef:(-(v / p));
            if Mat.get !cur i col <> 0 then dirty := true
          end
        done;
        if not !dirty then continue := false
      end
    done
  done;
  (* !cur is upper triangular; split into unirow factors, top row
     applied last:  H = R_{n-1} ... R_0 with R_i = identity except row
     i = H's row i. *)
  let h = !cur in
  let unirows =
    List.init n (fun k ->
        let i = n - 1 - k in
        Mat.make n n (fun r c -> if r = i then Mat.get h r c else if r = c then 1 else 0))
  in
  let factors = List.rev !ops @ unirows in
  assert (Mat.equal t (Elementary.product factors));
  assert (List.for_all Elementary.is_unirow factors);
  factors
