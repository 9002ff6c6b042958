type t = { r : int; c : int; a : Rat.t array array }

let rows m = m.r
let cols m = m.c

(* An [r]x[c] matrix of fresh zero rows, for the kernels to fill. *)
let alloc r c =
  let a = Array.make r [||] in
  for i = 0 to r - 1 do
    a.(i) <- Array.make c Rat.zero
  done;
  { r; c; a }

let make r c f =
  if r <= 0 || c <= 0 then invalid_arg "Ratmat.make: non-positive dimension";
  let m = alloc r c in
  for i = 0 to r - 1 do
    let row = m.a.(i) in
    for j = 0 to c - 1 do
      row.(j) <- f i j
    done
  done;
  m

let of_mat m = make (Mat.rows m) (Mat.cols m) (fun i j -> Rat.of_int (Mat.get m i j))

let get m i j = m.a.(i).(j)

let identity n = make n n (fun i j -> if i = j then Rat.one else Rat.zero)

let for_all f m =
  let ok = ref true in
  for i = 0 to m.r - 1 do
    for j = 0 to m.c - 1 do
      if not (f i j m.a.(i).(j)) then ok := false
    done
  done;
  !ok

let is_zero m = for_all (fun _ _ x -> Rat.is_zero x) m
let is_integer m = for_all (fun _ _ x -> Rat.is_integer x) m

let to_mat m =
  if is_integer m then Some (Mat.make m.r m.c (fun i j -> Rat.to_int m.a.(i).(j)))
  else None

let to_mat_exn m =
  match to_mat m with
  | Some x -> x
  | None -> invalid_arg "Ratmat.to_mat_exn: non-integer entries"

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
let scale k m = map (Rat.mul k) m

let check_same_dims name m n =
  if m.r <> n.r || m.c <> n.c then
    invalid_arg (Printf.sprintf "Ratmat.%s: dimension mismatch" name)

let sub m n =
  check_same_dims "sub" m n;
  make m.r m.c (fun i j -> Rat.sub m.a.(i).(j) n.a.(i).(j))

let mul m n =
  if m.c <> n.r then invalid_arg "Ratmat.mul: dimension mismatch";
  let p = alloc m.r n.c in
  for i = 0 to m.r - 1 do
    let x = m.a.(i) and z = p.a.(i) in
    for j = 0 to n.c - 1 do
      let acc = ref Rat.zero in
      for k = 0 to m.c - 1 do
        acc := Rat.add !acc (Rat.mul x.(k) n.a.(k).(j))
      done;
      z.(j) <- !acc
    done
  done;
  p

(* Gauss-Jordan to reduced row echelon form; returns pivot columns. *)
let rref m =
  let a = Array.init m.r (fun i -> Array.copy m.a.(i)) in
  let pivots = ref [] in
  let prow = ref 0 in
  for pcol = 0 to m.c - 1 do
    if !prow < m.r then begin
      (* find a non-zero pivot at or below !prow *)
      let piv = ref (-1) in
      for i = !prow to m.r - 1 do
        if !piv = -1 && not (Rat.is_zero a.(i).(pcol)) then piv := i
      done;
      if !piv >= 0 then begin
        let tmp = a.(!prow) in
        a.(!prow) <- a.(!piv);
        a.(!piv) <- tmp;
        let inv_p = Rat.inv a.(!prow).(pcol) in
        for j = 0 to m.c - 1 do
          a.(!prow).(j) <- Rat.mul inv_p a.(!prow).(j)
        done;
        for i = 0 to m.r - 1 do
          if i <> !prow && not (Rat.is_zero a.(i).(pcol)) then begin
            let f = a.(i).(pcol) in
            for j = 0 to m.c - 1 do
              a.(i).(j) <- Rat.sub a.(i).(j) (Rat.mul f a.(!prow).(j))
            done
          end
        done;
        pivots := pcol :: !pivots;
        incr prow
      end
    end
  done;
  ({ r = m.r; c = m.c; a }, List.rev !pivots)

let rank m =
  let _, pivots = rref m in
  List.length pivots

let rank_of_mat m = rank (of_mat m)

let inverse m =
  if m.r <> m.c then None
  else begin
    let aug = make m.r (2 * m.c) (fun i j ->
        if j < m.c then m.a.(i).(j)
        else if j - m.c = i then Rat.one
        else Rat.zero)
    in
    let red, pivots = rref aug in
    if List.length pivots = m.r
       && List.for_all (fun p -> p < m.c) pivots
    then Some (make m.r m.c (fun i j -> red.a.(i).(j + m.c)))
    else None
  end

let inverse_mat m = inverse (of_mat m)

(* Scale a rational column vector to a primitive integer vector. *)
let scale_to_int_col (v : Rat.t array) : Mat.t =
  let lcm a b = if a = 0 || b = 0 then 0 else abs (a * b) / (let rec g a b = if b = 0 then abs a else g b (a mod b) in g a b) in
  let l = Array.fold_left (fun acc x -> lcm acc (Rat.den x)) 1 v in
  let ints = Array.map (fun x -> Rat.to_int (Rat.mul (Rat.of_int l) x)) v in
  let g = Array.fold_left (fun acc x -> let rec g a b = if b = 0 then abs a else g b (a mod b) in g acc x) 0 ints in
  let ints = if g > 1 then Array.map (fun x -> x / g) ints else ints in
  (* Normalize sign: first non-zero entry positive. *)
  let sign = ref 1 in
  (try
     Array.iter (fun x -> if x <> 0 then begin sign := (if x < 0 then -1 else 1); raise Exit end) ints
   with Exit -> ());
  Mat.of_col (Array.map (fun x -> !sign * x) ints)

let kernel m =
  let red, pivots = rref m in
  let is_pivot = Array.make m.c false in
  List.iter (fun p -> is_pivot.(p) <- true) pivots;
  let pivots_arr = Array.of_list pivots in
  let basis = ref [] in
  for free = m.c - 1 downto 0 do
    if not (is_pivot.(free)) then begin
      let v = Array.make m.c Rat.zero in
      v.(free) <- Rat.one;
      Array.iteri (fun prow pcol -> v.(pcol) <- Rat.neg red.a.(prow).(free)) pivots_arr;
      basis := scale_to_int_col v :: !basis
    end
  done;
  !basis

let kernel_of_mat m = kernel (of_mat m)

let pp ppf m =
  for i = 0 to m.r - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.c - 1 do
      if j > 0 then Format.fprintf ppf " ";
      Rat.pp ppf m.a.(i).(j)
    done;
    Format.fprintf ppf "]";
    if i < m.r - 1 then Format.fprintf ppf "@\n"
  done
