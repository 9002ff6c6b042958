(* Tests for the communication-decomposition machinery (paper §4-5). *)

open Linalg
open Decomp

let mat = Alcotest.testable Mat.pp_flat Mat.equal
let m_of = Mat.of_lists

let prop ?(count = 300) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* Elementary matrices                                                 *)
(* ------------------------------------------------------------------ *)

let test_elementary_basic () =
  Alcotest.check mat "l2" (m_of [ [ 1; 0 ]; [ 3; 1 ] ]) (Elementary.l2 3);
  Alcotest.check mat "u2" (m_of [ [ 1; -2 ]; [ 0; 1 ] ]) (Elementary.u2 (-2));
  Alcotest.(check bool) "l2 elementary" true (Elementary.is_elementary (Elementary.l2 5));
  Alcotest.(check bool) "id elementary" true (Elementary.is_elementary (Mat.identity 3));
  Alcotest.(check (option int)) "axis of l2" (Some 1)
    (Elementary.axis_of (Elementary.l2 4));
  Alcotest.(check (option int)) "axis of u2" (Some 0)
    (Elementary.axis_of (Elementary.u2 4));
  Alcotest.(check (option int)) "axis of id" None (Elementary.axis_of (Mat.identity 2))

let test_elementary_nd () =
  let e = m_of [ [ 1; 0; 0 ]; [ 2; 1; -1 ]; [ 0; 0; 1 ] ] in
  Alcotest.(check bool) "elementary" true (Elementary.is_elementary e);
  Alcotest.(check (option int)) "axis" (Some 1) (Elementary.axis_of e);
  let unirow = m_of [ [ 1; 0; 0 ]; [ 2; 5; -1 ]; [ 0; 0; 1 ] ] in
  Alcotest.(check bool) "unirow, not elementary" true
    (Elementary.is_unirow unirow && not (Elementary.is_elementary unirow));
  Alcotest.(check bool) "zero diagonal is not unirow" false
    (Elementary.is_unirow (m_of [ [ 0; 1 ]; [ 0; 1 ] ]))

(* ------------------------------------------------------------------ *)
(* Direct decomposition                                                *)
(* ------------------------------------------------------------------ *)

let check_factors t expected_count =
  match Decompose.min_factors t with
  | None -> Alcotest.failf "expected %d factors, got none <= 4" expected_count
  | Some fs ->
    Alcotest.(check int) "factor count" expected_count (List.length fs);
    Alcotest.check mat "product" t (Elementary.product (Mat.identity 2 :: fs));
    List.iter
      (fun f ->
        Alcotest.(check bool) "each factor elementary" true
          (Elementary.is_elementary f))
      fs

let test_decompose_identity () = check_factors (Mat.identity 2) 0
let test_decompose_one () = check_factors (Elementary.l2 7) 1

let test_decompose_paper_t () =
  (* the worked example: T = [[1,2],[3,7]] = L(3) U(2) *)
  let t = m_of [ [ 1; 2 ]; [ 3; 7 ] ] in
  check_factors t 2;
  match Decompose.min_factors t with
  | Some [ l; u ] ->
    Alcotest.check mat "L(3)" (Elementary.l2 3) l;
    Alcotest.check mat "U(2)" (Elementary.u2 2) u
  | _ -> Alcotest.fail "two factors expected"

let test_decompose_three () =
  (* a = 3, d = 3, c = 2: c | a - 1, neither a = 1 nor d = 1 *)
  check_factors (m_of [ [ 3; 4 ]; [ 2; 3 ] ]) 3

let test_decompose_four () =
  (* found by exhaustive search: requires four factors *)
  let h = Search.factor_histogram ~bound:4 () in
  Alcotest.(check int) "all small matrices <= 4 factors" 0 h.Search.beyond_four;
  Alcotest.(check bool) "some need exactly 4" true (h.Search.by_factors.(4) > 0)

let test_decompose_rejects () =
  Alcotest.check_raises "det 2" (Invalid_argument "Decompose: determinant must be 1")
    (fun () -> ignore (Decompose.min_factors (m_of [ [ 2; 0 ]; [ 0; 1 ] ])));
  Alcotest.check_raises "3x3" (Invalid_argument "Decompose: expected a 2x2 matrix")
    (fun () -> ignore (Decompose.min_factors (Mat.identity 3)))

let gen_elementary_product =
  QCheck.Gen.(
    int_range 0 4 >>= fun n ->
    list_size (return n)
      (map2
         (fun is_l k -> if is_l then Elementary.l2 k else Elementary.u2 k)
         bool (int_range (-4) 4)))

let arb_elem_product =
  QCheck.make
    ~print:(fun fs ->
      Format.asprintf "%a" Mat.pp_flat (Elementary.product (Mat.identity 2 :: fs)))
    gen_elementary_product

let gen_det1 =
  (* random product of elementary matrices: a generic SL2(Z) sample *)
  QCheck.Gen.(
    list_size (int_range 0 7)
      (map2
         (fun is_l k -> if is_l then Elementary.l2 k else Elementary.u2 k)
         bool (int_range (-3) 3)))

let arb_det1 =
  QCheck.make
    ~print:(fun fs ->
      Format.asprintf "%a" Mat.pp_flat (Elementary.product (Mat.identity 2 :: fs)))
    gen_det1

let decompose_props =
  [
    prop "products of <= 4 factors are recognized" arb_elem_product (fun fs ->
        let t = Elementary.product (Mat.identity 2 :: fs) in
        match Decompose.min_factors t with
        | None -> false
        | Some got ->
          List.length got <= 4
          && Mat.equal t (Elementary.product (Mat.identity 2 :: got)));
    prop "min_factors is minimal among alternating forms" arb_elem_product
      (fun fs ->
        (* whatever count we report, the product itself bounds it *)
        let t = Elementary.product (Mat.identity 2 :: fs) in
        match Decompose.factor_count t with
        | None -> false
        | Some k ->
          (* merging adjacent same-type factors can only shrink fs *)
          k <= List.length fs || List.length fs > 4);
    prop "euclid always reconstructs det-1 matrices" arb_det1 (fun fs ->
        let t = Elementary.product (Mat.identity 2 :: fs) in
        let got = Decompose.euclid t in
        Mat.equal t (Elementary.product (Mat.identity 2 :: got))
        && List.for_all Elementary.is_elementary got);
  ]

(* ------------------------------------------------------------------ *)
(* Similarity                                                          *)
(* ------------------------------------------------------------------ *)

let test_similarity_trivial () =
  let t = m_of [ [ 1; 2 ]; [ 3; 7 ] ] in
  match Similarity.sufficient t with
  | None -> Alcotest.fail "a = 1 case"
  | Some r ->
    Alcotest.check mat "identity conjugator" (Mat.identity 2) r.Similarity.conjugator

let test_similarity_sufficient () =
  (* c | a - 1 with a <> 1: conjugation needed *)
  let t = m_of [ [ 3; 1 ]; [ 2; 1 ] ] in
  match Similarity.sufficient t with
  | None -> Alcotest.fail "condition holds"
  | Some r ->
    Alcotest.(check bool) "conjugator unimodular" true
      (Unimodular.is_unimodular r.Similarity.conjugator);
    Alcotest.check mat "similar = M T M^-1"
      (Mat.mul
         (Mat.mul r.Similarity.conjugator t)
         (Unimodular.inverse r.Similarity.conjugator))
      r.Similarity.similar;
    Alcotest.(check bool) "two factors" true (List.length r.Similarity.factors <= 2)

let test_similarity_negative () =
  (* the parabolic obstruction: trace -2, no two-factor similar form
     even with a generous conjugator bound *)
  let t = m_of [ [ -1; -5 ]; [ 0; -1 ] ] in
  Alcotest.(check bool) "sufficient fails" true (Similarity.sufficient t = None);
  Alcotest.(check bool) "search fails at bound 4" true
    (Similarity.search ~bound:4 t = None);
  Alcotest.(check int) "discriminant 0" 0 (Similarity.discriminant t)

let test_similarity_search_finds () =
  (* search subsumes the sufficient condition *)
  let t = m_of [ [ 3; 1 ]; [ 2; 1 ] ] in
  match Similarity.search ~bound:2 t with
  | None -> Alcotest.fail "search should find"
  | Some r ->
    Alcotest.check mat "conjugation correct"
      (Mat.mul
         (Mat.mul r.Similarity.conjugator t)
         (Unimodular.inverse r.Similarity.conjugator))
      r.Similarity.similar

let similarity_props =
  [
    prop ~count:150 "sufficient condition results verify" arb_det1 (fun fs ->
        let t = Elementary.product (Mat.identity 2 :: fs) in
        match Similarity.sufficient t with
        | None -> true
        | Some r ->
          Unimodular.is_unimodular r.Similarity.conjugator
          && Mat.equal
               (Mat.mul
                  (Mat.mul r.Similarity.conjugator t)
                  (Unimodular.inverse r.Similarity.conjugator))
               r.Similarity.similar
          && List.length r.Similarity.factors <= 2
          && Mat.equal r.Similarity.similar
               (Elementary.product (Mat.identity 2 :: r.Similarity.factors)));
  ]

(* ------------------------------------------------------------------ *)
(* Arbitrary determinant                                               *)
(* ------------------------------------------------------------------ *)

let test_gendet_paper_style () =
  let t = m_of [ [ 2; 1 ]; [ 1; 1 ] ] in
  let fs = Gendet.decompose t in
  Alcotest.check mat "product" t (Elementary.product fs);
  Alcotest.(check bool) "all unirow" true (List.for_all Elementary.is_unirow fs)

let test_gendet_rejects_singular () =
  Alcotest.check_raises "singular" (Invalid_argument "Gendet.decompose: singular")
    (fun () -> ignore (Gendet.decompose (m_of [ [ 1; 2 ]; [ 2; 4 ] ])))

let gen_nonsingular =
  QCheck.Gen.(
    int_range 2 3 >>= fun n ->
    map
      (fun entries -> Mat.make n n (fun i j -> entries.(i).(j)))
      (array_size (return n) (array_size (return n) (int_range (-5) 5))))

let arb_nonsingular = QCheck.make ~print:(Format.asprintf "%a" Mat.pp_flat) gen_nonsingular

let gendet_props =
  [
    prop ~count:300 "gendet reconstructs any non-singular matrix" arb_nonsingular
      (fun t ->
        QCheck.assume (Mat.det t <> 0);
        let fs = Gendet.decompose t in
        Mat.equal t (Elementary.product fs)
        && List.for_all Elementary.is_unirow fs);
    prop ~count:300 "gendet factor determinants multiply" arb_nonsingular (fun t ->
        QCheck.assume (Mat.det t <> 0);
        let fs = Gendet.decompose t in
        List.fold_left (fun acc f -> acc * Mat.det f) 1 fs = Mat.det t);
  ]

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

let test_search_histogram () =
  let h = Search.factor_histogram ~bound:3 () in
  (* identity is the only 0-factor matrix *)
  Alcotest.(check int) "one identity" 1 h.Search.by_factors.(0);
  Alcotest.(check int) "none beyond four" 0 h.Search.beyond_four;
  Alcotest.(check int) "total"
    (Array.fold_left ( + ) 0 h.Search.by_factors)
    h.Search.total

let test_search_similarity () =
  let total, suff, srch = Search.similarity_histogram ~bound:2 ~conj_bound:2 () in
  Alcotest.(check bool) "search at least as strong as sufficient" true (srch >= suff);
  Alcotest.(check bool) "not everything is similar to LU" true (srch < total)

(* ------------------------------------------------------------------ *)
(* Continued fractions                                                 *)
(* ------------------------------------------------------------------ *)

let test_cfrac_expansion () =
  Alcotest.(check (list int)) "22/7" [ 3; 7 ] (Decomp.Cfrac.expansion 22 7);
  Alcotest.(check (list int)) "7/22" [ 0; 3; 7 ] (Decomp.Cfrac.expansion 7 22);
  Alcotest.check_raises "q = 0" Division_by_zero (fun () ->
      ignore (Decomp.Cfrac.expansion 5 0))

let cfrac_props =
  let gen_det1 =
    QCheck.Gen.(
      list_size (int_range 0 6)
        (map2
           (fun is_l k -> if is_l then Decomp.Elementary.l2 k else Decomp.Elementary.u2 k)
           bool (int_range (-3) 3)))
  in
  let arb =
    QCheck.make
      ~print:(fun fs ->
        Format.asprintf "%a" Mat.pp_flat (Decomp.Elementary.product (Mat.identity 2 :: fs)))
      gen_det1
  in
  [
    prop ~count:200 "expansion reconstructs the fraction" (QCheck.make
      ~print:(fun (p, q) -> Printf.sprintf "%d/%d" p q)
      QCheck.Gen.(pair (int_range 1 200) (int_range 1 200)))
      (fun (p, q) ->
        (* fold the expansion back: h_k/k_k convergent equals p/q after
           reduction; check via evaluation *)
        let e = Decomp.Cfrac.expansion p q in
        let rec eval = function
          | [] -> (1, 0)
          | a :: rest ->
            let num, den = eval rest in
            ((a * num) + den, num)
        in
        let num, den = eval e in
        den * p = num * q);
    prop ~count:200 "euclid length within the bound" arb (fun fs ->
        let t = Decomp.Elementary.product (Mat.identity 2 :: fs) in
        List.length (Decomp.Decompose.euclid t) <= Decomp.Cfrac.length_bound t + 1);
  ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "decomp"
    [
      ( "elementary",
        [
          Alcotest.test_case "2x2 constructors" `Quick test_elementary_basic;
          Alcotest.test_case "n-D and unirow" `Quick test_elementary_nd;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "identity" `Quick test_decompose_identity;
          Alcotest.test_case "single factor" `Quick test_decompose_one;
          Alcotest.test_case "paper worked example" `Quick test_decompose_paper_t;
          Alcotest.test_case "three factors" `Quick test_decompose_three;
          Alcotest.test_case "four factors exist, none need more" `Quick
            test_decompose_four;
          Alcotest.test_case "input validation" `Quick test_decompose_rejects;
        ]
        @ decompose_props );
      ( "similarity",
        [
          Alcotest.test_case "trivial case" `Quick test_similarity_trivial;
          Alcotest.test_case "sufficient condition" `Quick
            test_similarity_sufficient;
          Alcotest.test_case "parabolic obstruction" `Quick test_similarity_negative;
          Alcotest.test_case "search" `Quick test_similarity_search_finds;
        ]
        @ similarity_props );
      ( "gendet",
        [
          Alcotest.test_case "paper-style factorization" `Quick
            test_gendet_paper_style;
          Alcotest.test_case "rejects singular" `Quick test_gendet_rejects_singular;
        ]
        @ gendet_props );
      ( "search",
        [
          Alcotest.test_case "histogram invariants" `Quick test_search_histogram;
          Alcotest.test_case "similarity histogram" `Quick test_search_similarity;
        ] );
      ( "cfrac",
        [ Alcotest.test_case "expansion" `Quick test_cfrac_expansion ] @ cfrac_props
      );
    ]
