type t = { r : int; c : int; a : int array array }

let rows m = m.r
let cols m = m.c
let dims m = (m.r, m.c)

let make r c f =
  if r <= 0 || c <= 0 then invalid_arg "Mat.make: non-positive dimension";
  { r; c; a = Array.init r (fun i -> Array.init c (fun j -> f i j)) }

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

let to_lists m = Array.to_list (Array.map Array.to_list m.a)

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

let for_all f m =
  let ok = ref true in
  for i = 0 to m.r - 1 do
    for j = 0 to m.c - 1 do
      if not (f i j m.a.(i).(j)) then ok := false
    done
  done;
  !ok

let is_identity m =
  is_square m && for_all (fun i j x -> x = if i = j then 1 else 0) m

let is_zero m = for_all (fun _ _ x -> x = 0) m

let equal m n = m.r = n.r && m.c = n.c && for_all (fun i j x -> x = n.a.(i).(j)) m

let transpose m = make m.c m.r (fun i j -> m.a.(j).(i))

let map f m = make m.r m.c (fun i j -> f m.a.(i).(j))

let neg m = map (fun x -> -x) m
let scale k m = map (fun x -> k * x) m

let check_same_dims name m n =
  if m.r <> n.r || m.c <> n.c then
    invalid_arg (Printf.sprintf "Mat.%s: dimension mismatch %dx%d vs %dx%d"
                   name m.r m.c n.r n.c)

let add m n =
  check_same_dims "add" m n;
  make m.r m.c (fun i j -> m.a.(i).(j) + n.a.(i).(j))

let sub m n =
  check_same_dims "sub" m n;
  make m.r m.c (fun i j -> m.a.(i).(j) - n.a.(i).(j))

let mul m n =
  if m.c <> n.r then
    invalid_arg (Printf.sprintf "Mat.mul: dimension mismatch %dx%d * %dx%d"
                   m.r m.c n.r n.c);
  make m.r n.c (fun i j ->
      let acc = ref 0 in
      for k = 0 to m.c - 1 do
        acc := !acc + (m.a.(i).(k) * n.a.(k).(j))
      done;
      !acc)

let row m i = Array.copy m.a.(i)
let col m j = Array.init m.r (fun i -> m.a.(i).(j))

let of_row v =
  if Array.length v = 0 then invalid_arg "Mat.of_row: empty";
  make 1 (Array.length v) (fun _ j -> v.(j))

let of_col v =
  if Array.length v = 0 then invalid_arg "Mat.of_col: empty";
  make (Array.length v) 1 (fun i _ -> v.(i))

let mul_vec m v =
  if Array.length v <> m.c then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init m.r (fun i ->
      let acc = ref 0 in
      for j = 0 to m.c - 1 do
        acc := !acc + (m.a.(i).(j) * v.(j))
      done;
      !acc)

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

let pow m n =
  if not (is_square m) then invalid_arg "Mat.pow: non-square";
  if n < 0 then invalid_arg "Mat.pow: negative exponent";
  let rec go acc b n =
    if n = 0 then acc
    else
      let acc = if n land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (n lsr 1)
  in
  go (identity m.r) m n

let max_abs m =
  let best = ref 0 in
  for i = 0 to m.r - 1 do
    for j = 0 to m.c - 1 do
      if abs m.a.(i).(j) > !best then best := abs m.a.(i).(j)
    done
  done;
  !best

let pp ppf m =
  let widths = Array.make m.c 1 in
  for j = 0 to m.c - 1 do
    for i = 0 to m.r - 1 do
      let w = String.length (string_of_int m.a.(i).(j)) in
      if w > widths.(j) then widths.(j) <- w
    done
  done;
  for i = 0 to m.r - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.c - 1 do
      if j > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%*d" widths.(j) m.a.(i).(j)
    done;
    Format.fprintf ppf "]";
    if i < m.r - 1 then Format.fprintf ppf "@\n"
  done

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

let to_string m = Format.asprintf "%a" pp m
