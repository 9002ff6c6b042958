(* Tests for the rational subspace algebra. *)

open Linalg

let prop ?(count = 250) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let col l = Mat.of_col (Array.of_list l)

(* Observers over [Subspace.basis]: dimension, the rank of a list of
   columns, membership (a member adds no rank), inclusion, equality. *)
let dim s = List.length (Subspace.basis s)

let rank_of = function
  | [] -> 0
  | c :: cs -> Ratmat.rank_of_mat (List.fold_left Mat.hcat c cs)

let mem s v = rank_of (v :: Subspace.basis s) = dim s
let subset a b = List.for_all (mem b) (Subspace.basis a)
let equal a b = subset a b && subset b a

let pp ppf s =
  Format.fprintf ppf "span{%s}"
    (String.concat ", "
       (List.map (fun v -> Format.asprintf "%a" Mat.pp_flat (Mat.transpose v))
          (Subspace.basis s)))

(* A subspace of Q^n as the kernel of a random 1..3 x n matrix. *)
let gen_space_in n =
  QCheck.Gen.(
    int_range 1 3 >>= fun k ->
    map
      (fun rows -> Subspace.kernel (Mat.of_lists rows))
      (list_size (return k) (list_size (return n) (int_range (-3) 3))))

let arb_space =
  QCheck.make ~print:(Format.asprintf "%a" pp)
    QCheck.Gen.(int_range 2 4 >>= gen_space_in)

let arb_space_pair =
  (* two spaces in the same ambient dimension *)
  QCheck.make
    ~print:(fun (a, b) -> Format.asprintf "%a / %a" pp a pp b)
    QCheck.Gen.(int_range 2 4 >>= fun n -> pair (gen_space_in n) (gen_space_in n))

let test_kernel () =
  let f = Mat.of_lists [ [ 1; 2; 0 ]; [ 0; 0; 1 ] ] in
  let k = Subspace.kernel f in
  Alcotest.(check int) "dim 1" 1 (dim k);
  Alcotest.(check bool) "generator" true (mem k (col [ 2; -1; 0 ]))

let test_intersect () =
  (* span{e1, e2} and span{e2, e3} *)
  let a = Subspace.kernel (Mat.of_lists [ [ 0; 0; 1 ] ]) in
  let b = Subspace.kernel (Mat.of_lists [ [ 1; 0; 0 ] ]) in
  let i = Subspace.intersect a b in
  Alcotest.(check int) "dim 1" 1 (dim i);
  Alcotest.(check bool) "e2" true (mem i (col [ 0; 5; 0 ]))

let props =
  [
    prop "intersection inside both" arb_space_pair (fun (a, b) ->
        let i = Subspace.intersect a b in
        subset i a && subset i b);
    prop "dimension formula" arb_space_pair (fun (a, b) ->
        rank_of (Subspace.basis a @ Subspace.basis b) + dim (Subspace.intersect a b)
        = dim a + dim b);
    prop "intersect commutative" arb_space_pair (fun (a, b) ->
        equal (Subspace.intersect a b) (Subspace.intersect b a));
    prop "kernel members annihilate" arb_space (fun s ->
        (* build a matrix from the basis and check kernel membership *)
        match Subspace.basis s with
        | [] -> true
        | cols ->
          let m = List.fold_left Mat.hcat (List.hd cols) (List.tl cols) in
          let k = Subspace.kernel (Mat.transpose m) in
          List.for_all
            (fun v -> Mat.is_zero (Mat.mul (Mat.transpose m) v))
            (Subspace.basis k));
  ]

(* the paper's broadcast condition via subspaces: ker(theta) ∩ ker(F6)
   escapes ker(M_S2) in Example 1 *)
let test_paper_broadcast_condition () =
  let f6 = Nestir.Paper_examples.example1_f 6 in
  let theta = Mat.zero 1 3 in
  let ms2 = Mat.of_lists [ [ 1; 1; 0 ]; [ 0; 1; 0 ] ] in
  let shared = Subspace.intersect (Subspace.kernel theta) (Subspace.kernel f6) in
  Alcotest.(check int) "one shared direction" 1 (dim shared);
  Alcotest.(check bool) "escapes ker M_S2" false
    (subset shared (Subspace.kernel ms2));
  Alcotest.(check int) "broadcast dimension p = 1" 1
    (rank_of (List.map (Mat.mul ms2) (Subspace.basis shared)))

let () =
  Alcotest.run "subspace"
    [
      ( "unit",
        [
          Alcotest.test_case "kernel" `Quick test_kernel;
          Alcotest.test_case "intersection" `Quick test_intersect;
          Alcotest.test_case "paper broadcast condition" `Quick
            test_paper_broadcast_condition;
        ] );
      ("properties", props);
    ]
