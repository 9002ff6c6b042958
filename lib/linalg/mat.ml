type t = { r : int; c : int; a : int array array }

let rows m = m.r
let cols m = m.c

(* An [r]x[c] matrix of fresh zero rows, for the kernels to fill. *)
let alloc r c =
  let a = Array.make r [||] in
  for i = 0 to r - 1 do
    a.(i) <- Array.make c 0
  done;
  { r; c; a }

let make r c f =
  if r <= 0 || c <= 0 then invalid_arg "Mat.make: non-positive dimension";
  let m = alloc r c in
  for i = 0 to r - 1 do
    let row = m.a.(i) in
    for j = 0 to c - 1 do
      row.(j) <- f i j
    done
  done;
  m

let of_lists rows_l =
  match rows_l with
  | [] -> invalid_arg "Mat.of_lists: empty"
  | first :: _ ->
    let c = List.length first in
    if c = 0 then invalid_arg "Mat.of_lists: empty row";
    if not (List.for_all (fun row -> List.length row = c) rows_l) then
      invalid_arg "Mat.of_lists: ragged rows";
    let a = Array.of_list (List.map Array.of_list rows_l) in
    { r = Array.length a; c; a }

let of_arrays a =
  if Array.length a = 0 then invalid_arg "Mat.of_arrays: empty";
  let c = Array.length a.(0) in
  if c = 0 then invalid_arg "Mat.of_arrays: empty row";
  Array.iter (fun row ->
      if Array.length row <> c then invalid_arg "Mat.of_arrays: ragged") a;
  { r = Array.length a; c; a = Array.map Array.copy a }

let to_arrays m = Array.map Array.copy m.a

let get m i j = m.a.(i).(j)

let identity n = make n n (fun i j -> if i = j then 1 else 0)
let zero r c = make r c (fun _ _ -> 0)

let is_square m = m.r = m.c

let is_identity m =
  let ok = ref (is_square m) in
  for i = 0 to m.r - 1 do
    let row = m.a.(i) in
    for j = 0 to m.c - 1 do
      if row.(j) <> (if i = j then 1 else 0) then ok := false
    done
  done;
  !ok

let is_zero m =
  let ok = ref true in
  for i = 0 to m.r - 1 do
    let row = m.a.(i) in
    for j = 0 to m.c - 1 do
      if row.(j) <> 0 then ok := false
    done
  done;
  !ok

let equal m n =
  m.r = n.r && m.c = n.c
  &&
  let ok = ref true in
  for i = 0 to m.r - 1 do
    let x = m.a.(i) and y = n.a.(i) in
    for j = 0 to m.c - 1 do
      if x.(j) <> y.(j) then ok := false
    done
  done;
  !ok

let transpose m =
  let t = alloc m.c m.r in
  for i = 0 to m.r - 1 do
    let row = m.a.(i) in
    for j = 0 to m.c - 1 do
      t.a.(j).(i) <- row.(j)
    done
  done;
  t

let map f m = make m.r m.c (fun i j -> f m.a.(i).(j))

let neg m = map (fun x -> -x) m

let check_same_dims name m n =
  if m.r <> n.r || m.c <> n.c then
    invalid_arg (Printf.sprintf "Mat.%s: dimension mismatch %dx%d vs %dx%d"
                   name m.r m.c n.r n.c)

let sub m n =
  check_same_dims "sub" m n;
  let d = alloc m.r m.c in
  for i = 0 to m.r - 1 do
    let x = m.a.(i) and y = n.a.(i) and z = d.a.(i) in
    for j = 0 to m.c - 1 do
      z.(j) <- x.(j) - y.(j)
    done
  done;
  d

let mul m n =
  if m.c <> n.r then
    invalid_arg (Printf.sprintf "Mat.mul: dimension mismatch %dx%d * %dx%d"
                   m.r m.c n.r n.c);
  let p = alloc m.r n.c in
  for i = 0 to m.r - 1 do
    let x = m.a.(i) and z = p.a.(i) in
    for j = 0 to n.c - 1 do
      let acc = ref 0 in
      for k = 0 to m.c - 1 do
        acc := !acc + (x.(k) * n.a.(k).(j))
      done;
      z.(j) <- !acc
    done
  done;
  p

let row m i = Array.copy m.a.(i)
let col m j = Array.init m.r (fun i -> m.a.(i).(j))

let of_col v =
  if Array.length v = 0 then invalid_arg "Mat.of_col: empty";
  make (Array.length v) 1 (fun i _ -> v.(i))

(* [row . v] over the first [n] entries, summed left to right. *)
let dot row v n =
  let acc = ref 0 in
  for j = 0 to n - 1 do
    acc := !acc + (row.(j) * v.(j))
  done;
  !acc

let mul_vec m v =
  if Array.length v <> m.c then invalid_arg "Mat.mul_vec: dimension mismatch";
  let a = m.a and c = m.c in
  match m.r with
  | 1 -> [| dot a.(0) v c |]
  | 2 -> [| dot a.(0) v c; dot a.(1) v c |]
  | 3 -> [| dot a.(0) v c; dot a.(1) v c; dot a.(2) v c |]
  | r ->
    let out = Array.make r 0 in
    for i = 0 to r - 1 do
      out.(i) <- dot a.(i) v c
    done;
    out

let hcat m n =
  if m.r <> n.r then invalid_arg "Mat.hcat: row mismatch";
  make m.r (m.c + n.c) (fun i j -> if j < m.c then m.a.(i).(j) else n.a.(i).(j - m.c))

let vcat m n =
  if m.c <> n.c then invalid_arg "Mat.vcat: column mismatch";
  make (m.r + n.r) m.c (fun i j -> if i < m.r then m.a.(i).(j) else n.a.(i - m.r).(j))

let sub_matrix m ~row ~col ~rows ~cols =
  if row < 0 || col < 0 || rows <= 0 || cols <= 0
     || row + rows > m.r || col + cols > m.c
  then invalid_arg "Mat.sub_matrix: out of bounds";
  make rows cols (fun i j -> m.a.(row + i).(col + j))

let swap_rows m i j =
  make m.r m.c (fun k l ->
      let k' = if k = i then j else if k = j then i else k in
      m.a.(k').(l))

(* Fraction-free Bareiss elimination: exact integer determinant. *)
let det m =
  if not (is_square m) then invalid_arg "Mat.det: non-square";
  let n = m.r in
  let a = to_arrays m in
  let sign = ref 1 in
  let prev = ref 1 in
  let result = ref None in
  (try
     for k = 0 to n - 2 do
       if a.(k).(k) = 0 then begin
         (* find a pivot row below *)
         let p = ref (-1) in
         for i = k + 1 to n - 1 do
           if !p = -1 && a.(i).(k) <> 0 then p := i
         done;
         if !p = -1 then begin result := Some 0; raise Exit end;
         let tmp = a.(k) in
         a.(k) <- a.(!p);
         a.(!p) <- tmp;
         sign := - !sign
       end;
       for i = k + 1 to n - 1 do
         for j = k + 1 to n - 1 do
           a.(i).(j) <- ((a.(i).(j) * a.(k).(k)) - (a.(i).(k) * a.(k).(j))) / !prev
         done;
         a.(i).(k) <- 0
       done;
       prev := a.(k).(k)
     done
   with Exit -> ());
  match !result with
  | Some d -> d
  | None -> !sign * a.(n - 1).(n - 1)

let rank m =
  (* Fraction-free (Bareiss) elimination with row and column pivoting:
     the number of pivots found is the rank over the rationals.  Exact
     integer arithmetic throughout — no tolerance to tune. *)
  let a = to_arrays m in
  let rows = m.r and cols = m.c in
  let rank = ref 0 in
  let prev = ref 1 in
  let col = ref 0 in
  while !rank < rows && !col < cols do
    let p = ref (-1) in
    for i = !rank to rows - 1 do
      if !p = -1 && a.(i).(!col) <> 0 then p := i
    done;
    if !p = -1 then incr col
    else begin
      let tmp = a.(!rank) in
      a.(!rank) <- a.(!p);
      a.(!p) <- tmp;
      for i = !rank + 1 to rows - 1 do
        for j = !col + 1 to cols - 1 do
          a.(i).(j) <-
            ((a.(i).(j) * a.(!rank).(!col)) - (a.(i).(!col) * a.(!rank).(j)))
            / !prev
        done;
        a.(i).(!col) <- 0
      done;
      prev := a.(!rank).(!col);
      incr rank;
      incr col
    end
  done;
  !rank

let trace m =
  if not (is_square m) then invalid_arg "Mat.trace: non-square";
  let acc = ref 0 in
  for i = 0 to m.r - 1 do
    acc := !acc + m.a.(i).(i)
  done;
  !acc

let minor m i j =
  if not (is_square m) then invalid_arg "Mat.minor: non-square";
  let n = m.r in
  if n <= 1 || i < 0 || i >= n || j < 0 || j >= n then
    invalid_arg "Mat.minor: out of range";
  make (n - 1) (n - 1) (fun r c ->
      m.a.(if r < i then r else r + 1).(if c < j then c else c + 1))

let adjugate m =
  if not (is_square m) then invalid_arg "Mat.adjugate: non-square";
  let n = m.r in
  if n = 1 then identity 1
  else
    make n n (fun i j ->
        (* adj = transposed cofactors: entry (i, j) = cofactor (j, i) *)
        let sign = if (i + j) mod 2 = 0 then 1 else -1 in
        sign * det (minor m j i))

let pp_flat ppf m =
  Format.fprintf ppf "[";
  for i = 0 to m.r - 1 do
    if i > 0 then Format.fprintf ppf "; ";
    for j = 0 to m.c - 1 do
      if j > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%d" m.a.(i).(j)
    done
  done;
  Format.fprintf ppf "]"
