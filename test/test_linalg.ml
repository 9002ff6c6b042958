(* Unit and property tests for the exact linear-algebra substrate. *)

open Linalg

let mat = Alcotest.testable Mat.pp_flat Mat.equal

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_entry = QCheck.Gen.int_range (-6) 6

let gen_mat ~rows ~cols =
  QCheck.Gen.map
    (fun entries -> Mat.make rows cols (fun i j -> entries.(i).(j)))
    (QCheck.Gen.array_size (QCheck.Gen.return rows)
       (QCheck.Gen.array_size (QCheck.Gen.return cols) gen_entry))

let gen_dims = QCheck.Gen.(pair (int_range 1 4) (int_range 1 4))

let gen_any_mat =
  QCheck.Gen.(gen_dims >>= fun (r, c) -> gen_mat ~rows:r ~cols:c)

let gen_square n = gen_mat ~rows:n ~cols:n

let arb_mat = QCheck.make ~print:(Format.asprintf "%a" Mat.pp_flat) gen_any_mat
let arb_square2 = QCheck.make ~print:(Format.asprintf "%a" Mat.pp_flat) (gen_square 2)
let arb_square3 = QCheck.make ~print:(Format.asprintf "%a" Mat.pp_flat) (gen_square 3)

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:300 arb f)

(* [a] times the identity *)
let scalar n a = Mat.make n n (fun i j -> if i = j then a else 0)

let is_id m = Ratmat.is_zero (Ratmat.sub m (Ratmat.identity (Ratmat.rows m)))

(* ------------------------------------------------------------------ *)
(* Rat                                                                 *)
(* ------------------------------------------------------------------ *)

(* [a/b], normalized by the arithmetic, so [=] compares values *)
let make a b = Rat.(mul (of_int a) (inv (of_int b)))

let test_rat_normalization () =
  let r = make 6 (-4) in
  Alcotest.(check int) "num" (-3) r.Rat.num;
  Alcotest.(check int) "den" 2 (Rat.den r);
  Alcotest.(check bool) "eq" true (make 2 4 = make 1 2);
  Alcotest.(check bool) "zero" true (Rat.is_zero (make 0 7))

let test_rat_arith () =
  let open Rat in
  Alcotest.(check bool) "add" true (add (make 1 2) (make 1 3) = make 5 6);
  Alcotest.(check bool) "sub" true (sub (make 1 2) (make 1 3) = make 1 6);
  Alcotest.(check bool) "mul" true (mul (make 2 3) (make 3 4) = make 1 2);
  Alcotest.(check bool) "inv" true (inv (make (-2) 5) = make (-5) 2);
  Alcotest.(check int) "to_int" 7 (to_int (of_int 7))

let test_rat_div_by_zero () =
  Alcotest.check_raises "inv" Division_by_zero (fun () -> ignore (Rat.inv Rat.zero))

let arb_rat =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "%d/%d" a b)
    QCheck.Gen.(pair (int_range (-50) 50) (int_range 1 50))

let rat_props =
  [
    prop "rat add commutative" (QCheck.pair arb_rat arb_rat) (fun ((a, b), (c, d)) ->
        let x = make a b and y = make c d in
        Rat.(add x y = add y x));
    prop "rat mul inverse" arb_rat (fun (a, b) ->
        let x = make a b in
        QCheck.assume (not (Rat.is_zero x));
        Rat.(mul x (inv x) = one));
    prop "rat add assoc" (QCheck.triple arb_rat arb_rat arb_rat)
      (fun ((a, b), (c, d), (e, f)) ->
        let x = make a b and y = make c d and z = make e f in
        Rat.(add (add x y) z = add x (add y z)));
  ]

(* ------------------------------------------------------------------ *)
(* Mat                                                                 *)
(* ------------------------------------------------------------------ *)

let m_of = Mat.of_lists

let test_mat_basic () =
  let a = m_of [ [ 1; 2 ]; [ 3; 4 ] ] in
  let b = m_of [ [ 5; 6 ]; [ 7; 8 ] ] in
  Alcotest.check mat "mul" (m_of [ [ 19; 22 ]; [ 43; 50 ] ]) (Mat.mul a b);
  Alcotest.check mat "transpose" (m_of [ [ 1; 3 ]; [ 2; 4 ] ]) (Mat.transpose a);
  Alcotest.(check int) "det" (-2) (Mat.det a);
  Alcotest.(check int) "trace" 5 (Mat.trace a)

let test_mat_det_3x3 () =
  let a = m_of [ [ 2; 0; 1 ]; [ 1; 1; 0 ]; [ 0; 3; 1 ] ] in
  Alcotest.(check int) "det3" 5 (Mat.det a);
  let singular = m_of [ [ 1; 2; 3 ]; [ 2; 4; 6 ]; [ 1; 0; 1 ] ] in
  Alcotest.(check int) "singular" 0 (Mat.det singular)

let test_mat_cat_sub () =
  let a = m_of [ [ 1; 2 ]; [ 3; 4 ] ] in
  let h = Mat.hcat a (Mat.identity 2) in
  Alcotest.(check (pair int int)) "hcat dims" (2, 4) (Mat.rows h, Mat.cols h);
  Alcotest.check mat "sub" a (Mat.sub_matrix h ~row:0 ~col:0 ~rows:2 ~cols:2);
  Alcotest.check mat "sub id" (Mat.identity 2)
    (Mat.sub_matrix h ~row:0 ~col:2 ~rows:2 ~cols:2);
  let v = Mat.vcat a a in
  Alcotest.(check (pair int int)) "vcat dims" (4, 2) (Mat.rows v, Mat.cols v)

let test_mat_errors () =
  let a = m_of [ [ 1; 2 ]; [ 3; 4 ] ] in
  let b = m_of [ [ 1; 2; 3 ] ] in
  Alcotest.check_raises "mul dims" (Invalid_argument "Mat.mul: dimension mismatch 2x2 * 1x3")
    (fun () -> ignore (Mat.mul a b));
  Alcotest.check_raises "det nonsquare" (Invalid_argument "Mat.det: non-square")
    (fun () -> ignore (Mat.det b));
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_lists: ragged rows")
    (fun () -> ignore (m_of [ [ 1 ]; [ 1; 2 ] ]))

let mat_props =
  [
    prop "det multiplicative (3x3)" (QCheck.pair arb_square3 arb_square3)
      (fun (a, b) -> Mat.det (Mat.mul a b) = Mat.det a * Mat.det b);
    prop "det transpose invariant" arb_square3 (fun a ->
        Mat.det a = Mat.det (Mat.transpose a));
    prop "transpose involutive" arb_mat (fun a ->
        Mat.equal a (Mat.transpose (Mat.transpose a)));
    prop "mul identity" arb_mat (fun a ->
        Mat.equal a (Mat.mul a (Mat.identity (Mat.cols a)))
        && Mat.equal a (Mat.mul (Mat.identity (Mat.rows a)) a));
    prop "add/sub roundtrip" (QCheck.pair arb_square2 arb_square2) (fun (a, b) ->
        Mat.equal a (Mat.sub (Mat.sub a b) (Mat.neg b)));
    prop "swap_rows involutive" arb_square3 (fun a ->
        Mat.equal a (Mat.swap_rows (Mat.swap_rows a 0 2) 0 2));
    prop "adjugate identity: a * adj a = det a * Id" arb_square3 (fun a ->
        Mat.equal (Mat.mul a (Mat.adjugate a)) (scalar 3 (Mat.det a)));
    prop "adjugate identity (2x2)" arb_square2 (fun a ->
        Mat.equal (Mat.mul (Mat.adjugate a) a) (scalar 2 (Mat.det a)));
  ]

(* ------------------------------------------------------------------ *)
(* Ratmat                                                              *)
(* ------------------------------------------------------------------ *)

let test_ratmat_inverse () =
  let a = m_of [ [ 2; 1 ]; [ 1; 1 ] ] in
  match Ratmat.inverse_mat a with
  | None -> Alcotest.fail "should be invertible"
  | Some inv ->
    Alcotest.(check bool) "a * a^-1 = I" true
      (is_id (Ratmat.mul (Ratmat.of_mat a) inv))

let test_ratmat_singular () =
  let a = m_of [ [ 1; 2 ]; [ 2; 4 ] ] in
  Alcotest.(check bool) "singular" true (Ratmat.inverse_mat a = None);
  Alcotest.(check int) "rank 1" 1 (Ratmat.rank_of_mat a)

let test_ratmat_kernel () =
  let a = m_of [ [ 1; 1; 0 ]; [ 0; 1; 1 ] ] in
  match Ratmat.kernel_of_mat a with
  | [ v ] ->
    Alcotest.(check bool) "Av = 0" true (Mat.is_zero (Mat.mul a v));
    Alcotest.(check (pair int int)) "shape" (3, 1) (Mat.rows v, Mat.cols v)
  | l -> Alcotest.failf "expected 1 kernel vector, got %d" (List.length l)

let test_ratmat_kernel_paper_f7 () =
  (* F7 from Example 1 has kernel generated by (1, 1, -1)^t. *)
  let f7 = m_of [ [ 1; 0; 1 ]; [ 0; 1; 1 ] ] in
  match Ratmat.kernel_of_mat f7 with
  | [ v ] ->
    Alcotest.(check bool) "F7 v = 0" true (Mat.is_zero (Mat.mul f7 v));
    let entries = Array.to_list (Mat.col v 0) in
    Alcotest.(check (list int)) "generator" [ 1; 1; -1 ] entries
  | l -> Alcotest.failf "expected 1 kernel vector, got %d" (List.length l)

let ratmat_props =
  [
    prop "rank <= min dims" arb_mat (fun a ->
        Ratmat.rank_of_mat a <= min (Mat.rows a) (Mat.cols a));
    prop "kernel vectors annihilate" arb_mat (fun a ->
        List.for_all (fun v -> Mat.is_zero (Mat.mul a v)) (Ratmat.kernel_of_mat a));
    prop "rank-nullity" arb_mat (fun a ->
        Ratmat.rank_of_mat a + List.length (Ratmat.kernel_of_mat a) = Mat.cols a);
    prop "inverse correct when det != 0" arb_square3 (fun a ->
        match Ratmat.inverse_mat a with
        | None -> Mat.det a = 0
        | Some inv ->
          Mat.det a <> 0
          && is_id (Ratmat.mul (Ratmat.of_mat a) inv)
          && is_id (Ratmat.mul inv (Ratmat.of_mat a)));
  ]

(* ------------------------------------------------------------------ *)
(* Hermite                                                             *)
(* ------------------------------------------------------------------ *)

let upper_echelon h =
  (* every pivot strictly to the right of the one above *)
  let rows = Mat.rows h and cols = Mat.cols h in
  let pivot_col i =
    let rec go j = if j >= cols then cols else if Mat.get h i j <> 0 then j else go (j + 1) in
    go 0
  in
  let rec check i last =
    if i >= rows then true
    else
      let p = pivot_col i in
      if p = cols then
        (* all remaining rows must be zero *)
        let rec all_zero k = k >= rows || pivot_col k = cols && all_zero (k + 1) in
        all_zero i
      else p > last && check (i + 1) p
  in
  check 0 (-1)

let test_hermite_row () =
  let a = m_of [ [ 2; 4; 4 ]; [ -6; 6; 12 ]; [ 10; 4; 16 ] ] in
  let { Hermite.h; u } = Hermite.row_style a in
  Alcotest.(check bool) "u unimodular" true (Unimodular.is_unimodular u);
  Alcotest.check mat "u a = h" h (Mat.mul u a);
  Alcotest.(check bool) "echelon" true (upper_echelon h)

let test_hermite_paper_right () =
  (* Axis-alignment use case: D = M_S * v for the Example 1 broadcast is
     (1, -1)^t; after rotation the direction is a single axis. *)
  let d = Mat.of_col [| 1; -1 |] in
  let { Hermite.q; h } = Hermite.paper_right d in
  Alcotest.(check bool) "q unimodular" true (Unimodular.is_unimodular q);
  Alcotest.check mat "a = q h" d (Mat.mul q h);
  Alcotest.(check int) "h top positive" 1 (Mat.get h 0 0);
  Alcotest.(check int) "h bottom zero" 0 (Mat.get h 1 0)

let hermite_props =
  [
    prop "row_style: u*a = h, u unimodular, h echelon" arb_mat (fun a ->
        let { Hermite.h; u } = Hermite.row_style a in
        Unimodular.is_unimodular u && Mat.equal h (Mat.mul u a) && upper_echelon h);
    prop "rank preserved by row_style" arb_mat (fun a ->
        let ({ h; _ } : Hermite.row_result) = Hermite.row_style a in
        Ratmat.rank_of_mat h = Ratmat.rank_of_mat a);
    prop "paper_right on full-column-rank" arb_mat (fun a ->
        QCheck.assume (Mat.cols a <= Mat.rows a);
        QCheck.assume (Ratmat.rank_of_mat a = Mat.cols a);
        let { Hermite.q; h } = Hermite.paper_right a in
        let p = Mat.cols a in
        let lower_ok = ref true in
        for i = 0 to Mat.rows h - 1 do
          for j = 0 to p - 1 do
            if (i < p && j > i) || i >= p then
              if Mat.get h i j <> 0 then lower_ok := false
          done
        done;
        Unimodular.is_unimodular q && Mat.equal a (Mat.mul q h) && !lower_ok);
  ]

(* ------------------------------------------------------------------ *)
(* Smith                                                               *)
(* ------------------------------------------------------------------ *)

(* the non-zero diagonal of the Smith form, in order *)
let invariant_factors a =
  let { Smith.s; _ } = Smith.decompose a in
  let diag = List.init (min (Mat.rows s) (Mat.cols s)) (fun i -> Mat.get s i i) in
  List.filter (( <> ) 0) diag

let test_smith_example () =
  let a = m_of [ [ 2; 4; 4 ]; [ -6; 6; 12 ]; [ 10; 4; 16 ] ] in
  let factors = invariant_factors a in
  Alcotest.(check (list int)) "invariant factors" [ 2; 2; 156 ] factors

let smith_props =
  [
    prop "u a v = s, u v unimodular, s diagonal, divisibility" arb_mat (fun a ->
        let { Smith.s; u; v } = Smith.decompose a in
        let diag_ok = ref true in
        for i = 0 to Mat.rows s - 1 do
          for j = 0 to Mat.cols s - 1 do
            if i <> j && Mat.get s i j <> 0 then diag_ok := false
          done
        done;
        let div_ok = ref true in
        let r = min (Mat.rows s) (Mat.cols s) in
        for i = 0 to r - 2 do
          let x = Mat.get s i i and y = Mat.get s (i + 1) (i + 1) in
          if x = 0 && y <> 0 then div_ok := false;
          if x <> 0 && y mod x <> 0 then div_ok := false;
          if x < 0 then div_ok := false
        done;
        Unimodular.is_unimodular u && Unimodular.is_unimodular v
        && Mat.equal s (Mat.mul (Mat.mul u a) v)
        && !diag_ok && !div_ok);
    prop "number of factors = rank" arb_mat (fun a ->
        List.length (invariant_factors a) = Ratmat.rank_of_mat a);
  ]

(* ------------------------------------------------------------------ *)
(* Unimodular                                                          *)
(* ------------------------------------------------------------------ *)

let test_unimodular_inverse () =
  let m = m_of [ [ 2; 1 ]; [ 1; 1 ] ] in
  Alcotest.(check bool) "is unimodular" true (Unimodular.is_unimodular m);
  let inv = Unimodular.inverse m in
  Alcotest.check mat "m * m^-1" (Mat.identity 2) (Mat.mul m inv)

let test_unimodular_reject () =
  Alcotest.(check bool) "det 2 rejected" false
    (Unimodular.is_unimodular (m_of [ [ 2; 0 ]; [ 0; 1 ] ]));
  Alcotest.check_raises "inverse raises"
    (Invalid_argument "Unimodular.inverse: not unimodular") (fun () ->
      ignore (Unimodular.inverse (m_of [ [ 2; 0 ]; [ 0; 1 ] ])))

let test_unimodular_random () =
  let st = Random.State.make [| 42 |] in
  for dim = 2 to 4 do
    for _ = 1 to 20 do
      let m = Unimodular.random ~dim ~ops:12 st in
      if not (Unimodular.is_unimodular m) then
        Alcotest.failf "random %dx%d not unimodular" dim dim
    done
  done

let test_unimodular_enumerate () =
  let all = Unimodular.enumerate_2x2 ~bound:1 in
  Alcotest.(check bool) "all unimodular" true
    (List.for_all Unimodular.is_unimodular all);
  (* contains identity and the basic transvections *)
  Alcotest.(check bool) "contains id" true
    (List.exists Mat.is_identity all)

(* ------------------------------------------------------------------ *)
(* Pseudo-inverses                                                     *)
(* ------------------------------------------------------------------ *)

let test_pseudo_left () =
  (* F1 from Example 1: narrow 3x2 matrix. *)
  let f = m_of [ [ 1; 0 ]; [ 0; 1 ]; [ 1; 1 ] ] in
  match Pseudo.left_inverse f with
  | None -> Alcotest.fail "full column rank"
  | Some fp ->
    Alcotest.(check bool) "F+ F = I" true
      (is_id (Ratmat.mul fp (Ratmat.of_mat f)))

let test_pseudo_integer_left () =
  let f = m_of [ [ 1; 0 ]; [ 0; 1 ]; [ 1; 1 ] ] in
  match Pseudo.integer_left_inverse f with
  | None -> Alcotest.fail "integer left inverse exists"
  | Some g ->
    Alcotest.check mat "G F = I" (Mat.identity 2) (Mat.mul g f)

let test_pseudo_integer_left_none () =
  (* 2 * Id has no integer left inverse. *)
  let f = m_of [ [ 2; 0 ]; [ 0; 2 ]; [ 0; 0 ] ] in
  Alcotest.(check bool) "no integer inverse" true
    (Pseudo.integer_left_inverse f = None)

let test_pseudo_paper_g6 () =
  (* The paper replaces F6+ by G = [[0 1 0],[0 0 1]] with G F6 = Id. *)
  let f6 = m_of [ [ 1; 1 ]; [ 1; 0 ]; [ 0; 1 ] ] in
  let g = m_of [ [ 0; 1; 0 ]; [ 0; 0; 1 ] ] in
  Alcotest.check mat "G F6 = I" (Mat.identity 2) (Mat.mul g f6);
  (* and such a G is produced by the parametric family *)
  match Pseudo.left_inverse f6 with
  | None -> Alcotest.fail "full column rank"
  | Some fp ->
    Alcotest.(check bool) "true pseudo works too" true
      (is_id (Ratmat.mul fp (Ratmat.of_mat f6)))

(* the normal equations (F^T F)^-1 F^T got this square one wrong *)
let test_pseudo_square () =
  let f =
    m_of [ [ -5; -6; 6; -5 ]; [ 5; -6; 4; 0 ]; [ 2; -5; -6; -5 ]; [ -4; -4; -5; 1 ] ]
  in
  match Pseudo.left_inverse f with
  | Some l ->
    Alcotest.(check bool) "F+ F = I" true (is_id (Ratmat.mul l (Ratmat.of_mat f)));
    Alcotest.(check bool) "the ordinary inverse" true
      (Ratmat.is_zero (Ratmat.sub l (Option.get (Ratmat.inverse_mat f))))
  | None -> Alcotest.fail "non-singular"

let pseudo_props =
  [
    prop "left inverse: F+ F = I when full column rank" arb_mat (fun a ->
        QCheck.assume (Mat.cols a <= Mat.rows a);
        QCheck.assume (Ratmat.rank_of_mat a = Mat.cols a);
        match Pseudo.left_inverse a with
        | None -> false
        | Some fp -> is_id (Ratmat.mul fp (Ratmat.of_mat a)));
    prop "integer left inverse is a left inverse" arb_mat (fun a ->
        match Pseudo.integer_left_inverse a with
        | None -> true
        | Some g -> Mat.is_identity (Mat.mul g a));
  ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "linalg"
    [
      ( "rat",
        [
          Alcotest.test_case "normalization" `Quick test_rat_normalization;
          Alcotest.test_case "arithmetic" `Quick test_rat_arith;
          Alcotest.test_case "division by zero" `Quick test_rat_div_by_zero;
        ]
        @ rat_props );
      ( "mat",
        [
          Alcotest.test_case "basic ops" `Quick test_mat_basic;
          Alcotest.test_case "det 3x3" `Quick test_mat_det_3x3;
          Alcotest.test_case "cat/sub" `Quick test_mat_cat_sub;
          Alcotest.test_case "errors" `Quick test_mat_errors;
        ]
        @ mat_props );
      ( "ratmat",
        [
          Alcotest.test_case "inverse" `Quick test_ratmat_inverse;
          Alcotest.test_case "singular" `Quick test_ratmat_singular;
          Alcotest.test_case "kernel" `Quick test_ratmat_kernel;
          Alcotest.test_case "kernel F7 (paper)" `Quick test_ratmat_kernel_paper_f7;
        ]
        @ ratmat_props );
      ( "hermite",
        [
          Alcotest.test_case "row style" `Quick test_hermite_row;
          Alcotest.test_case "paper right form" `Quick test_hermite_paper_right;
        ]
        @ hermite_props );
      ( "smith",
        [ Alcotest.test_case "worked example" `Quick test_smith_example ]
        @ smith_props );
      ( "unimodular",
        [
          Alcotest.test_case "inverse" `Quick test_unimodular_inverse;
          Alcotest.test_case "reject non-unimodular" `Quick test_unimodular_reject;
          Alcotest.test_case "random generation" `Quick test_unimodular_random;
          Alcotest.test_case "enumeration" `Quick test_unimodular_enumerate;
        ] );
      ( "pseudo",
        [
          Alcotest.test_case "left inverse" `Quick test_pseudo_left;
          Alcotest.test_case "integer left inverse" `Quick test_pseudo_integer_left;
          Alcotest.test_case "integer left inverse absent" `Quick
            test_pseudo_integer_left_none;
          Alcotest.test_case "paper G for F6" `Quick test_pseudo_paper_g6;
          Alcotest.test_case "square: the ordinary inverse" `Quick test_pseudo_square;
        ]
        @ pseudo_props );
    ]
