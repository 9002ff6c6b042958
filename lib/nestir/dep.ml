open Linalg

type kind = Flow | Anti | Output

type dep = {
  kind : kind;
  src_stmt : string;
  src_access : string;
  dst_stmt : string;
  dst_access : string;
  array_name : string;
}

(* a1 I1 = a2 I2  <=>  [F1 | -F2] (I1; I2) = c2 - c1 *)
let dependence_system (a1 : Affine.t) (a2 : Affine.t) =
  let f = Mat.hcat a1.Affine.f (Mat.neg a2.Affine.f) in
  let b = Array.mapi (fun k x -> x - a1.Affine.c.(k)) a2.Affine.c in
  (f, b)

let gcd_test a1 a2 =
  if Affine.dim_out a1 <> Affine.dim_out a2 then false
  else
    let f, b = dependence_system a1 a2 in
    Matsolve.solve_linear_int f b <> None

let banerjee_test ~extent1 ~extent2 a1 a2 =
  if Affine.dim_out a1 <> Affine.dim_out a2 then false
  else begin
    let f, b = dependence_system a1 a2 in
    let extents = Array.append extent1 extent2 in
    (* For each scalar equation, the linear form must be able to reach
       b_r inside the box [0, extent_k). *)
    let rec check r =
      if r >= Mat.rows f then true
      else begin
        let lo = ref 0 and hi = ref 0 in
        for k = 0 to Mat.cols f - 1 do
          let coef = Mat.get f r k in
          let span = extents.(k) - 1 in
          if coef > 0 then hi := !hi + (coef * span)
          else lo := !lo + (coef * span)
        done;
        b.(r) >= !lo && b.(r) <= !hi && check (r + 1)
      end
    in
    check 0
  end

let may_conflict (s1 : Loopnest.stmt) (a1 : Loopnest.access) (s2 : Loopnest.stmt)
    (a2 : Loopnest.access) =
  if a1.Loopnest.array_name <> a2.Loopnest.array_name then false
  else begin
    let same_access =
      s1.Loopnest.stmt_name = s2.Loopnest.stmt_name && a1.Loopnest.map == a2.Loopnest.map
    in
    if same_access && Affine.rank a1.Loopnest.map = Affine.dim_in a1.Loopnest.map then
      (* injective self-access: distinct iterations touch distinct
         elements *)
      false
    else
      gcd_test a1.Loopnest.map a2.Loopnest.map
      && banerjee_test ~extent1:s1.Loopnest.extent ~extent2:s2.Loopnest.extent
           a1.Loopnest.map a2.Loopnest.map
  end

let label_of (a : Loopnest.access) =
  if a.Loopnest.label = "" then a.Loopnest.array_name else a.Loopnest.label

let analyze (nest : Loopnest.t) =
  let accesses = Loopnest.all_accesses nest in
  let deps = ref [] in
  let consider (s1, a1) (s2, a2) =
    let kind =
      match (a1.Loopnest.kind, a2.Loopnest.kind) with
      | Loopnest.Write, Loopnest.Read -> Some Flow
      | Loopnest.Read, Loopnest.Write -> Some Anti
      | Loopnest.Write, Loopnest.Write -> Some Output
      | Loopnest.Read, Loopnest.Read -> None
    in
    match kind with
    | None -> ()
    | Some kind ->
      if may_conflict s1 a1 s2 a2 then
        deps :=
          {
            kind;
            src_stmt = s1.Loopnest.stmt_name;
            src_access = label_of a1;
            dst_stmt = s2.Loopnest.stmt_name;
            dst_access = label_of a2;
            array_name = a1.Loopnest.array_name;
          }
          :: !deps
  in
  let rec pairs = function
    | [] -> ()
    | x :: rest ->
      consider x x;
      List.iter
        (fun y ->
          consider x y;
          consider y x)
        rest;
      pairs rest
  in
  pairs accesses;
  List.rev !deps

let is_doall nest = analyze nest = []
