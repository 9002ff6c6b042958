open Linalg

(* transvection: Id + k E_ij (i <> j) *)
let transvection n i j k =
  Mat.make n n (fun r c -> if r = c then 1 else if r = i && c = j then k else 0)

let decompose t =
  if not (Mat.is_square t) then invalid_arg "Decompose_nd: non-square";
  if Mat.det t <> 1 then invalid_arg "Decompose_nd: determinant must be 1";
  let n = Mat.rows t in
  let cur = ref t in
  let ops = ref [] in
  (* Apply row_i += k row_j to cur and record the inverse transvection
     so that t = ops(left to right, reversed accumulator) * cur holds
     at every point. *)
  let apply i j k =
    if k <> 0 then begin
      cur := Mat.mul (transvection n i j k) !cur;
      ops := transvection n i j (-k) :: !ops
    end
  in
  (* Flip the signs of rows i and j (i <> j):
     -Id_2 = (U(-1) L(1) U(-1))^2 embedded in the (i, j) plane, i
     playing the role of the first axis. *)
  let negate_pair i j =
    for _ = 1 to 2 do
      apply i j 1;
      (* note: recorded op k and applied op -k; the sequence below is
         self-inverse in structure, correctness is asserted at the end *)
      apply j i (-1);
      apply i j 1
    done
  in
  (* Column Euclid: make column [col] zero below the diagonal. *)
  for col = 0 to n - 1 do
    let continue = ref true in
    while !continue do
      (* minimal non-zero entry at or below the diagonal *)
      let piv = ref (-1) in
      for i = col to n - 1 do
        if Mat.get !cur i col <> 0
           && (!piv = -1 || abs (Mat.get !cur i col) < abs (Mat.get !cur !piv col))
        then piv := i
      done;
      assert (!piv >= 0);
      if !piv <> col then begin
        let acc = Mat.get !cur col col in
        let apv = Mat.get !cur !piv col in
        if acc = 0 then apply col !piv 1
        else apply col !piv (-(acc / apv))
      end
      else begin
        let p = Mat.get !cur col col in
        let dirty = ref false in
        for i = col + 1 to n - 1 do
          let v = Mat.get !cur i col in
          if v <> 0 then begin
            apply i col (-(v / p));
            if Mat.get !cur i col <> 0 then dirty := true
          end
        done;
        if not !dirty then begin
          if Mat.get !cur col col < 0 then begin
            (* pair the sign with a later row; det 1 guarantees an even
               number of negative pivots, so col < n-1 here *)
            assert (col < n - 1);
            negate_pair col (col + 1);
            (* the pair flip may have disturbed this column below the
               diagonal; loop again *)
          end
          else continue := false
        end
      end
    done
  done;
  (* now upper triangular with unit diagonal: clear above *)
  for col = n - 1 downto 1 do
    for i = col - 1 downto 0 do
      apply i col (-(Mat.get !cur i col))
    done
  done;
  assert (Mat.is_identity !cur);
  let factors = List.rev !ops in
  assert (factors = [] || Mat.equal t (Elementary.product factors));
  assert (List.for_all Elementary.is_elementary factors);
  factors
