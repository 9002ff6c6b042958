type constr = { coeffs : Rat.t array; bound : Rat.t }

type system = { nvars : int; constrs : constr list }

let make ~nvars =
  if nvars < 0 then invalid_arg "Fourier.make: negative variable count";
  { nvars; constrs = [] }

let of_int_row s coeffs bound =
  if Array.length coeffs <> s.nvars then
    invalid_arg "Fourier: coefficient row has the wrong length";
  { coeffs = Array.map Rat.of_int coeffs; bound = Rat.of_int bound }

let add_le s coeffs bound = { s with constrs = of_int_row s coeffs bound :: s.constrs }

let add_ge s coeffs bound =
  add_le s (Array.map (fun x -> -x) coeffs) (-bound)

let add_eq s coeffs bound = add_ge (add_le s coeffs bound) coeffs bound

(* Normalize a constraint so the coefficient of variable [v] is +-1 or
   0 (divide by its absolute value). *)
let normalize_on v (c : constr) =
  let a = c.coeffs.(v) in
  if Rat.is_zero a then c
  else begin
    let s = Rat.abs a in
    { coeffs = Array.map (fun x -> Rat.div x s) c.coeffs; bound = Rat.div c.bound s }
  end

let eliminate s v =
  if v < 0 || v >= s.nvars then invalid_arg "Fourier.eliminate: bad variable";
  let lower = ref [] and upper = ref [] and rest = ref [] in
  List.iter
    (fun c ->
      let c = normalize_on v c in
      let a = c.coeffs.(v) in
      if Rat.is_zero a then rest := c :: !rest
      else if Rat.sign a > 0 then upper := c :: !upper (* x_v <= ... *)
      else lower := c :: !lower (* -x_v <= ...  i.e.  x_v >= ... *))
    s.constrs;
  (* pair every lower with every upper: (l + u) has no x_v *)
  let combined =
    List.concat_map
      (fun l ->
        List.map
          (fun u ->
            {
              coeffs = Array.init s.nvars (fun i -> Rat.add l.coeffs.(i) u.coeffs.(i));
              bound = Rat.add l.bound u.bound;
            })
          !upper)
      !lower
  in
  (* drop the (now zero) coefficient of v by keeping the arrays: the
     variable simply no longer appears *)
  { s with constrs = combined @ !rest }

let trivially_infeasible c =
  Array.for_all Rat.is_zero c.coeffs && Rat.sign c.bound < 0

let feasible s =
  let rec go s v =
    if List.exists trivially_infeasible s.constrs then false
    else if v >= s.nvars then true
    else go (eliminate s v) (v + 1)
  in
  go s 0

(* Back-substitution: choose x_0, .., x_{n-1} in order; before
   choosing x_v, substitute the values already fixed and eliminate the
   variables above v, which yields explicit rational bounds on x_v. *)
let sample s =
  if not (feasible s) then None
  else begin
    let substitute sys v value =
      {
        sys with
        constrs =
          List.map
            (fun c ->
              let contrib = Rat.mul c.coeffs.(v) value in
              let coeffs = Array.copy c.coeffs in
              coeffs.(v) <- Rat.zero;
              { coeffs; bound = Rat.sub c.bound contrib })
            sys.constrs;
      }
    in
    let values = Array.make s.nvars Rat.zero in
    let current = ref s in
    for v = 0 to s.nvars - 1 do
      let reduced = ref !current in
      for w = v + 1 to s.nvars - 1 do
        reduced := eliminate !reduced w
      done;
      let lo = ref None and hi = ref None in
      List.iter
        (fun c ->
          let c = normalize_on v c in
          let a = c.coeffs.(v) in
          if not (Rat.is_zero a) then
            if Rat.sign a > 0 then
              hi := Some (match !hi with None -> c.bound | Some h -> Rat.min h c.bound)
            else begin
              let b = Rat.neg c.bound in
              lo := Some (match !lo with None -> b | Some l -> Rat.max l b)
            end)
        !reduced.constrs;
      let x =
        match (!lo, !hi) with
        | None, None -> Rat.zero
        | Some l, None -> l
        | None, Some h -> h
        | Some l, Some h ->
          if Rat.compare l Rat.zero <= 0 && Rat.compare Rat.zero h <= 0 then
            Rat.zero
          else l
      in
      values.(v) <- x;
      current := substitute !current v x
    done;
    Some values
  end

let feasible_int s =
  let fuel = ref 2000 in
  let rec go s =
    match sample s with
    | None -> false
    | Some v -> (
      match
        (* first fractional coordinate *)
        let rec find i =
          if i >= Array.length v then None
          else if Rat.is_integer v.(i) then find (i + 1)
          else Some i
        in
        find 0
      with
      | None -> true
      | Some i ->
        if !fuel <= 0 then true (* sound over-approximation *)
        else begin
          decr fuel;
          let q = v.(i) in
          let fl =
            (* floor of a rational *)
            let n = Rat.num q and d = Rat.den q in
            if n >= 0 then n / d else -(((-n) + d - 1) / d)
          in
          let unit k x = Array.init s.nvars (fun j -> if j = k then x else 0) in
          go (add_le s (unit i 1) fl) || go (add_ge s (unit i 1) (fl + 1))
        end)
  in
  go s
