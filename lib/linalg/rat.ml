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

let den r = r.den

let add a b = make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)
let sub a b = make ((a.num * b.den) - (b.num * a.den)) (a.den * b.den)
let mul a b = make (a.num * b.num) (a.den * b.den)

let neg a = { a with num = -a.num }

let inv a =
  if a.num = 0 then raise Division_by_zero;
  make a.den a.num

let is_zero a = a.num = 0
let is_integer a = a.den = 1

let to_int a =
  if a.den <> 1 then invalid_arg "Rat.to_int: not an integer";
  a.num

let pp ppf a =
  if a.den = 1 then Format.fprintf ppf "%d" a.num
  else Format.fprintf ppf "%d/%d" a.num a.den
