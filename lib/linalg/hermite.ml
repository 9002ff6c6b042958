type row_result = { h : Mat.t; u : Mat.t }
type right_result = { q : Mat.t; h : Mat.t }

(* Row-style HNF by integer row operations.  We keep [a] and the
   transform [u] as mutable arrays and apply every operation to both. *)
let row_style a0 =
  let m = Mat.rows a0 and n = Mat.cols a0 in
  let a = Mat.to_arrays a0 in
  let u = Mat.to_arrays (Mat.identity m) in
  let swap i j =
    if i <> j then begin
      let t = a.(i) in a.(i) <- a.(j); a.(j) <- t;
      let t = u.(i) in u.(i) <- u.(j); u.(j) <- t
    end
  in
  let addmul dst src k =
    (* row dst <- row dst + k * row src *)
    if k <> 0 then begin
      for j = 0 to n - 1 do a.(dst).(j) <- a.(dst).(j) + (k * a.(src).(j)) done;
      for j = 0 to m - 1 do u.(dst).(j) <- u.(dst).(j) + (k * u.(src).(j)) done
    end
  in
  let negate i =
    for j = 0 to n - 1 do a.(i).(j) <- - a.(i).(j) done;
    for j = 0 to m - 1 do u.(i).(j) <- - u.(i).(j) done
  in
  let prow = ref 0 in
  for pcol = 0 to n - 1 do
    if !prow < m then begin
      (* Euclid on the column entries at rows >= !prow. *)
      let continue = ref true in
      while !continue do
        (* find row with minimal non-zero |entry| in this column *)
        let best = ref (-1) in
        for i = !prow to m - 1 do
          if a.(i).(pcol) <> 0
             && (!best = -1 || abs a.(i).(pcol) < abs a.(!best).(pcol))
          then best := i
        done;
        if !best = -1 then continue := false (* whole column zero *)
        else begin
          swap !prow !best;
          let p = a.(!prow).(pcol) in
          let others = ref false in
          for i = !prow + 1 to m - 1 do
            if a.(i).(pcol) <> 0 then begin
              let q = a.(i).(pcol) / p in
              addmul i !prow (-q);
              if a.(i).(pcol) <> 0 then others := true
            end
          done;
          if not !others then continue := false
        end
      done;
      if !prow < m && a.(!prow).(pcol) <> 0 then begin
        if a.(!prow).(pcol) < 0 then negate !prow;
        let p = a.(!prow).(pcol) in
        (* reduce the entries above the pivot into [0, p) *)
        for i = 0 to !prow - 1 do
          let q =
            if a.(i).(pcol) >= 0 then a.(i).(pcol) / p
            else - (((- a.(i).(pcol)) + p - 1) / p)
          in
          addmul i !prow (-q)
        done;
        incr prow
      end
    end
  done;
  { h = Mat.of_arrays a; u = Mat.of_arrays u }

let paper_right a =
  let m = Mat.rows a and p = Mat.cols a in
  if p > m then invalid_arg "Hermite.paper_right: more columns than rows";
  if Ratmat.rank_of_mat a <> p then
    invalid_arg "Hermite.paper_right: not of full column rank";
  (* Reverse the columns, take the row HNF (upper triangular on top),
     then reverse the rows of the top block: the top block becomes
     lower triangular.  See DESIGN.md. *)
  let jp = Mat.make p p (fun i j -> if i + j = p - 1 then 1 else 0) in
  let { h = r; u } = row_style (Mat.mul a jp) in
  (* u * a * jp = r = [R; 0] with R upper triangular. *)
  let jfull =
    Mat.make m m (fun i j ->
        if i < p && j < p then (if i + j = p - 1 then 1 else 0)
        else if i = j then 1
        else 0)
  in
  let u' = Mat.mul jfull u in
  let h = Mat.mul (Mat.mul jfull r) jp in
  (* u' * a = h with the top block of h lower triangular. *)
  let q =
    match Ratmat.inverse_mat u' with
    | Some inv -> Ratmat.to_mat_exn inv
    | None -> assert false
  in
  { q; h }
