type result = { s : Mat.t; u : Mat.t; v : Mat.t }

let decompose a0 =
  let m = Mat.rows a0 and n = Mat.cols a0 in
  let a = Mat.to_arrays a0 in
  let u = Mat.to_arrays (Mat.identity m) in
  let v = Mat.to_arrays (Mat.identity n) in
  let swap_rows i j =
    if i <> j then begin
      let t = a.(i) in a.(i) <- a.(j); a.(j) <- t;
      let t = u.(i) in u.(i) <- u.(j); u.(j) <- t
    end
  in
  let swap_cols i j =
    if i <> j then begin
      for k = 0 to m - 1 do
        let t = a.(k).(i) in a.(k).(i) <- a.(k).(j); a.(k).(j) <- t
      done;
      for k = 0 to n - 1 do
        let t = v.(k).(i) in v.(k).(i) <- v.(k).(j); v.(k).(j) <- t
      done
    end
  in
  let row_addmul dst src k =
    if k <> 0 then begin
      for j = 0 to n - 1 do a.(dst).(j) <- a.(dst).(j) + (k * a.(src).(j)) done;
      for j = 0 to m - 1 do u.(dst).(j) <- u.(dst).(j) + (k * u.(src).(j)) done
    end
  in
  let col_addmul dst src k =
    if k <> 0 then begin
      for i = 0 to m - 1 do a.(i).(dst) <- a.(i).(dst) + (k * a.(i).(src)) done;
      for i = 0 to n - 1 do v.(i).(dst) <- v.(i).(dst) + (k * v.(i).(src)) done
    end
  in
  let negate_row i =
    for j = 0 to n - 1 do a.(i).(j) <- - a.(i).(j) done;
    for j = 0 to m - 1 do u.(i).(j) <- - u.(i).(j) done
  in
  let rank_bound = min m n in
  for t = 0 to rank_bound - 1 do
    (* Find the submatrix entry with minimal non-zero absolute value. *)
    let find_pivot () =
      let best = ref None in
      for i = t to m - 1 do
        for j = t to n - 1 do
          if a.(i).(j) <> 0 then
            match !best with
            | None -> best := Some (i, j)
            | Some (bi, bj) ->
              if abs a.(i).(j) < abs a.(bi).(bj) then best := Some (i, j)
        done
      done;
      !best
    in
    let rec reduce () =
      match find_pivot () with
      | None -> ()
      | Some (pi, pj) ->
        swap_rows t pi;
        swap_cols t pj;
        let dirty = ref false in
        for i = t + 1 to m - 1 do
          if a.(i).(t) <> 0 then begin
            row_addmul i t (- (a.(i).(t) / a.(t).(t)));
            if a.(i).(t) <> 0 then dirty := true
          end
        done;
        for j = t + 1 to n - 1 do
          if a.(t).(j) <> 0 then begin
            col_addmul j t (- (a.(t).(j) / a.(t).(t)));
            if a.(t).(j) <> 0 then dirty := true
          end
        done;
        if !dirty then reduce ()
        else begin
          (* Enforce divisibility: a.(t).(t) must divide every
             remaining entry; otherwise fold an offending row in and
             restart the reduction for this pivot. *)
          let offender = ref None in
          for i = t + 1 to m - 1 do
            for j = t + 1 to n - 1 do
              if !offender = None && a.(i).(j) mod a.(t).(t) <> 0 then
                offender := Some i
            done
          done;
          match !offender with
          | Some i -> row_addmul t i 1; reduce ()
          | None -> if a.(t).(t) < 0 then negate_row t
        end
    in
    reduce ()
  done;
  { s = Mat.of_arrays a; u = Mat.of_arrays u; v = Mat.of_arrays v }
