type t = { num : int; den : int }

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let make num den =
  if den = 0 then raise Division_by_zero;
  let s = if den < 0 then -1 else 1 in
  let num = s * num and den = s * den in
  let g = gcd num den in
  if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }

let zero = of_int 0
let one = of_int 1

let num r = r.num
let den r = r.den

let add a b = make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)
let sub a b = make ((a.num * b.den) - (b.num * a.den)) (a.den * b.den)
let mul a b = make (a.num * b.num) (a.den * b.den)

let div a b =
  if b.num = 0 then raise Division_by_zero;
  make (a.num * b.den) (a.den * b.num)

let neg a = { a with num = -a.num }

let inv a =
  if a.num = 0 then raise Division_by_zero;
  make a.den a.num

let equal a b = a.num = b.num && a.den = b.den

let compare a b = Stdlib.compare (a.num * b.den) (b.num * a.den)

let is_zero a = a.num = 0
let is_one a = a.num = 1 && a.den = 1
let is_integer a = a.den = 1

let to_int a =
  if a.den <> 1 then invalid_arg "Rat.to_int: not an integer";
  a.num

let min a b = if compare a b <= 0 then a else b

let pp ppf a =
  if a.den = 1 then Format.fprintf ppf "%d" a.num
  else Format.fprintf ppf "%d/%d" a.num a.den
