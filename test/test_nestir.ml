(* Tests for the loop-nest IR: affine maps, nest validation, schedules
   (Lamport hyperplanes, legality by enumeration), the dependence
   analysis against an exact oracle, and the C printer. *)

open Linalg
open Nestir

let mat = Alcotest.testable Mat.pp_flat Mat.equal

let prop ?(count = 200) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* Affine                                                              *)
(* ------------------------------------------------------------------ *)

let test_affine_apply () =
  let a = Affine.of_lists [ [ 1; 1 ]; [ 0; 1 ] ] [ 1; 0 ] in
  Alcotest.(check (array int)) "apply" [| 4; 2 |] (Affine.apply a [| 1; 2 |]);
  Alcotest.(check int) "dim_in" 2 (Affine.dim_in a);
  Alcotest.(check int) "dim_out" 2 (Affine.dim_out a);
  Alcotest.(check int) "rank" 2 (Affine.rank a)

let test_affine_translation () =
  Alcotest.(check bool) "shift is translation" true
    (Affine.is_translation (Affine.make (Mat.identity 2) [| -1; 3 |]));
  Alcotest.(check bool) "skew is not" false
    (Affine.is_translation (Affine.of_lists [ [ 1; 1 ]; [ 0; 1 ] ] [ 0; 0 ]))

let test_affine_bad_constant () =
  Alcotest.check_raises "mismatched c"
    (Invalid_argument "Affine.make: constant vector does not match matrix rows")
    (fun () -> ignore (Affine.make (Mat.identity 2) [| 1 |]))

let affine_props =
  let gen =
    QCheck.make
      ~print:(fun (f, c) -> Format.asprintf "%a" Mat.pp_flat f ^ "+" ^ String.concat "," (List.map string_of_int (Array.to_list c)))
      QCheck.Gen.(
        int_range 1 3 >>= fun r ->
        int_range 1 3 >>= fun cdim ->
        let entry = int_range (-4) 4 in
        map2
          (fun rows c -> (Mat.make r cdim (fun i j -> rows.(i).(j)), c))
          (array_size (return r) (array_size (return cdim) entry))
          (array_size (return r) entry))
  in
  [
    prop "apply is affine: A(x+y) - A(y) = F x" gen (fun (f, c) ->
        let a = Affine.make f c in
        let x = Array.init (Mat.cols f) (fun i -> i + 1) in
        let y = Array.init (Mat.cols f) (fun i -> 2 * i) in
        let xy = Array.init (Mat.cols f) (fun i -> x.(i) + y.(i)) in
        let lhs =
          Array.init (Mat.rows f) (fun k ->
              (Affine.apply a xy).(k) - (Affine.apply a y).(k))
        in
        lhs = Mat.mul_vec f x);
  ]

(* ------------------------------------------------------------------ *)
(* Loopnest                                                            *)
(* ------------------------------------------------------------------ *)

let test_nest_validation () =
  let arrays = [ { Loopnest.array_name = "a"; dim = 2 } ] in
  let bad_stmt =
    {
      Loopnest.stmt_name = "S";
      depth = 2;
      extent = [| 4; 4 |];
      accesses =
        [ Loopnest.access ~array_name:"a" Loopnest.Read (Affine.identity 3) ];
    }
  in
  Alcotest.check_raises "depth mismatch"
    (Invalid_argument
       "Loopnest.make: access S/a input dim 3 does not match depth 2") (fun () ->
      ignore (Loopnest.make ~name:"bad" ~arrays ~stmts:[ bad_stmt ]))

let test_nest_queries () =
  let nest = Paper_examples.example1 () in
  Alcotest.(check int) "3 statements" 3 (List.length nest.Loopnest.stmts);
  Alcotest.(check int) "9 accesses" 9 (List.length (Loopnest.all_accesses nest));
  Alcotest.(check int) "2 writes to b" 2 (List.length (Loopnest.writes_to nest "b"));
  Alcotest.(check int) "reads of a" 5
    (List.length
       (List.filter
          (fun (_, (a : Loopnest.access)) -> a.kind = Loopnest.Read && a.array_name = "a")
          (Loopnest.all_accesses nest)));
  let s2 = Loopnest.find_stmt nest "S2" in
  Alcotest.(check int) "S2 iteration count" (8 * 8 * 16)
    (Loopnest.iteration_count s2)

let test_nest_unknown_array () =
  let nest = Paper_examples.example1 () in
  Alcotest.check_raises "unknown array"
    (Invalid_argument "Loopnest.find_array: unknown array zz") (fun () ->
      ignore (Loopnest.find_array nest "zz"))

(* ------------------------------------------------------------------ *)
(* Schedule                                                            *)
(* ------------------------------------------------------------------ *)

let test_schedule_all_parallel () =
  let nest = Paper_examples.example1 () in
  let sched = Schedule.all_parallel nest in
  (* kernel of the zero schedule is the whole iteration space *)
  Alcotest.(check int) "S1 kernel dim" 2 (List.length (Schedule.kernel sched "S1"));
  Alcotest.(check int) "S2 kernel dim" 3 (List.length (Schedule.kernel sched "S2"))

let test_schedule_outer_sequential () =
  let nest = Paper_examples.example5 () in
  let sched = Schedule.outer_sequential nest in
  let th = Schedule.theta sched "S" in
  Alcotest.check mat "theta = e1^t" (Mat.of_lists [ [ 1; 0; 0; 0 ] ]) th;
  (* kernel = {t = 0}: 3-dimensional *)
  Alcotest.(check int) "kernel dim" 3 (List.length (Schedule.kernel sched "S"));
  Alcotest.check_raises "unknown stmt"
    (Invalid_argument "Schedule.theta: unknown statement T") (fun () ->
      ignore (Schedule.theta sched "T"))

(* ------------------------------------------------------------------ *)
(* Dependence analysis                                                 *)
(* ------------------------------------------------------------------ *)

let test_gcd_test () =
  (* a[2i] vs a[2j+1]: never equal *)
  let w = Affine.of_lists [ [ 2 ] ] [ 0 ] in
  let r = Affine.of_lists [ [ 2 ] ] [ 1 ] in
  Alcotest.(check bool) "parity separation" false (Dep.gcd_test w r);
  (* a[2i] vs a[2j]: can alias *)
  Alcotest.(check bool) "same parity" true (Dep.gcd_test w w)

let test_banerjee () =
  (* a[i] vs a[i+100] inside extent 8: out of range *)
  let w = Affine.of_lists [ [ 1 ] ] [ 0 ] in
  let r = Affine.of_lists [ [ 1 ] ] [ 100 ] in
  Alcotest.(check bool) "gcd passes" true (Dep.gcd_test w r);
  Alcotest.(check bool) "banerjee rejects" false
    (Dep.banerjee_test ~extent1:[| 8 |] ~extent2:[| 8 |] w r);
  Alcotest.(check bool) "banerjee accepts close shift" true
    (Dep.banerjee_test ~extent1:[| 8 |] ~extent2:[| 8 |] w
       (Affine.of_lists [ [ 1 ] ] [ 3 ]))

let test_example1_doall () =
  (* The paper: "There are no data dependences in the nest ... all
     loops are DOALL loops". *)
  let nest = Reference.example1 ~n:6 ~m:5 in
  let deps = Dep.analyze nest in
  Alcotest.(check int) "no dependences" 0 (List.length deps);
  Alcotest.(check bool) "doall" true (Dep.is_doall nest)

let test_matmul_deps () =
  (* C is both read and written at the same (i,j) across k: flow, anti
     and output dependences must all be reported. *)
  let nest = Paper_examples.matmul ~n:4 () in
  let deps = Dep.analyze nest in
  let kinds = List.map (fun d -> d.Dep.kind) deps in
  Alcotest.(check bool) "has flow" true (List.mem Dep.Flow kinds);
  Alcotest.(check bool) "has anti" true (List.mem Dep.Anti kinds);
  Alcotest.(check bool) "has output" true (List.mem Dep.Output kinds);
  Alcotest.(check bool) "not doall" false (Dep.is_doall nest)

let test_stencil_deps () =
  (* Reads A, writes B: no dependence at all. *)
  let nest = Paper_examples.stencil ~n:6 () in
  Alcotest.(check bool) "stencil doall" true (Dep.is_doall nest)

let test_example5_deps () =
  let nest = Paper_examples.example5 ~n:4 () in
  Alcotest.(check bool) "example5 doall (a write injective)" true
    (Dep.is_doall nest)

let test_reduction_self_dep () =
  (* s = s + ...: scalar read+write => flow/anti/output on s. *)
  let nest = Paper_examples.example4_reduction () in
  let deps = Dep.analyze nest in
  Alcotest.(check bool) "has deps on s" true
    (List.exists (fun d -> d.Dep.array_name = "s") deps)

(* ------------------------------------------------------------------ *)
(* Lamport scheduling                                                  *)
(* ------------------------------------------------------------------ *)

let test_distance_vectors () =
  let nest = Nestir.Paper_examples.seidel () in
  match Nestir.Schedule.distance_vectors nest with
  | None -> Alcotest.fail "uniform nest"
  | Some ds ->
    let sorted = List.sort compare (List.map Array.to_list ds) in
    Alcotest.(check (list (list int))) "distances" [ [ 0; 1 ]; [ 1; 0 ] ] sorted

let test_lamport_seidel () =
  let nest = Nestir.Paper_examples.seidel () in
  match Nestir.Schedule.lamport nest with
  | None -> Alcotest.fail "schedulable"
  | Some s ->
    let th = Nestir.Schedule.theta s "S" in
    (* h . (1,0) >= 1 and h . (0,1) >= 1 with minimal weight: (1,1) *)
    Alcotest.(check bool) "theta = (1,1)" true
      (Mat.equal th (Mat.of_lists [ [ 1; 1 ] ]))

let test_lamport_parallel_nest () =
  (* no dependences: the all-parallel schedule comes back *)
  let nest = Nestir.Paper_examples.stencil () in
  match Nestir.Schedule.lamport nest with
  | None -> Alcotest.fail "schedulable"
  | Some s ->
    Alcotest.(check bool) "zero schedule" true
      (Mat.is_zero (Nestir.Schedule.theta s "S"))

let test_lamport_nonuniform () =
  (* matmul reads C through the same map it writes: uniform, fine; but
     gauss reads A through a different matrix than it writes: not
     uniform *)
  Alcotest.(check bool) "gauss is not uniform" true
    (Nestir.Schedule.distance_vectors (Nestir.Paper_examples.gauss ()) = None)

let test_lamport_legal () =
  (* legality: along every dependence distance the schedule advances *)
  let nest = Nestir.Paper_examples.seidel () in
  match (Nestir.Schedule.lamport nest, Nestir.Schedule.distance_vectors nest) with
  | Some s, Some ds ->
    let th = Nestir.Schedule.theta s "S" in
    List.iter
      (fun d ->
        let v = Mat.mul_vec th d in
        Alcotest.(check bool) "advances" true (v.(0) >= 1))
      ds
  | _ -> Alcotest.fail "schedulable"

(* ------------------------------------------------------------------ *)
(* Legality                                                            *)
(* ------------------------------------------------------------------ *)

let test_legality_seidel () =
  let nest = Nestir.Paper_examples.seidel () in
  let lam = Option.get (Nestir.Schedule.lamport nest) in
  Alcotest.(check bool) "lamport legal" true (Reference.Legality.is_legal nest lam);
  Alcotest.(check bool) "all-parallel illegal" false
    (Reference.Legality.is_legal nest (Nestir.Schedule.all_parallel nest))

let test_legality_matmul () =
  let nest = Nestir.Paper_examples.matmul ~n:4 () in
  Alcotest.(check bool) "all-parallel illegal" false
    (Reference.Legality.is_legal nest (Nestir.Schedule.all_parallel nest));
  (* the k loop carries the accumulation: sequential k is legal *)
  let seq_k = Nestir.Schedule.make [ ("S", Linalg.Mat.of_lists [ [ 0; 0; 1 ] ]) ] in
  Alcotest.(check bool) "k-sequential legal" true
    (Reference.Legality.is_legal nest seq_k);
  (* and lamport finds a legal one on its own *)
  match Nestir.Schedule.lamport nest with
  | None -> Alcotest.fail "matmul is uniform"
  | Some s -> Alcotest.(check bool) "lamport legal" true (Reference.Legality.is_legal nest s)

let test_legality_paper_claims () =
  (* the paper: Example 1 has no dependences, all loops DOALL *)
  let e1 = Reference.example1 ~n:5 ~m:5 in
  Alcotest.(check bool) "example1 all-parallel legal" true
    (Reference.Legality.is_legal e1 (Nestir.Schedule.all_parallel e1));
  (* Example 5: sequential outer loop, parallel inner loops *)
  let e5 = Nestir.Paper_examples.example5 ~n:4 () in
  Alcotest.(check bool) "example5 schedule legal" true
    (Reference.Legality.is_legal e5 (Nestir.Paper_examples.example5_schedule e5));
  let stencil = Nestir.Paper_examples.stencil ~n:5 () in
  Alcotest.(check bool) "stencil all-parallel legal" true
    (Reference.Legality.is_legal stencil (Nestir.Schedule.all_parallel stencil))

let test_legality_agrees_with_lamport () =
  (* whenever lamport produces a schedule for a uniform nest, it is
     legal by the enumeration check *)
  List.iter
    (fun nest ->
      match Nestir.Schedule.lamport nest with
      | None -> ()
      | Some s ->
        if not (Reference.Legality.is_legal nest s) then
          Alcotest.failf "lamport schedule illegal on %s"
            nest.Nestir.Loopnest.nest_name)
    [
      Nestir.Paper_examples.seidel ();
      Nestir.Paper_examples.stencil ~n:5 ();
      Nestir.Paper_examples.matmul ~n:4 ();
      Nestir.Paper_examples.transpose ();
    ]

(* ------------------------------------------------------------------ *)
(* C pretty-printer                                                    *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_cprint () =
  let c = Nestir.Cprint.to_c (Nestir.Paper_examples.matmul ~n:4 ()) in
  Alcotest.(check bool) "loops" true (contains c "for (int i0 = 0; i0 < 4; i0++)");
  Alcotest.(check bool) "subscripts" true (contains c "C[i0][i1]");
  Alcotest.(check bool) "rhs reads" true (contains c "A[i0][i2]");
  let c1 = Nestir.Cprint.to_c (Nestir.Paper_examples.example1 ()) in
  Alcotest.(check bool) "offset subscripts" true (contains c1 "a[i0+i1+1][i1]")

(* ------------------------------------------------------------------ *)
(* Domain                                                              *)
(* ------------------------------------------------------------------ *)

let test_domain_box () =
  let d = Reference.Domain.box [| 3; 4 |] in
  Alcotest.(check int) "count" 12 (Reference.Domain.count d);
  Alcotest.(check bool) "member" true (Reference.Domain.mem d [| 2; 3 |]);
  Alcotest.(check bool) "outside" false (Reference.Domain.mem d [| 3; 0 |])

let test_domain_triangular () =
  let d = Reference.Domain.triangular 4 in
  (* i <= j < 4: pairs (0,0)..(3,3): 4+3+2+1 = 10 *)
  Alcotest.(check int) "count" 10 (Reference.Domain.count d);
  Alcotest.(check bool) "diag" true (Reference.Domain.mem d [| 2; 2 |]);
  Alcotest.(check bool) "below" false (Reference.Domain.mem d [| 3; 1 |])

let test_domain_empty () =
  let d =
    Reference.Domain.constrain (Reference.Domain.box [| 4; 4 |]) ~coeffs:[| 1; 1 |]
      ~bound:(-1)
  in
  Alcotest.(check bool) "empty" true (Reference.Domain.is_empty d)

(* ------------------------------------------------------------------ *)
(* Exact dependence oracle vs the algebraic tests                      *)
(* ------------------------------------------------------------------ *)

let gen_access =
  QCheck.Gen.(
    let entry = int_range (-2) 2 in
    map2
      (fun rows c -> Nestir.Affine.make (Mat.make 1 2 (fun _ j -> rows.(j))) [| c |])
      (array_size (return 2) entry)
      (int_range (-3) 3))

let arb_access_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      Format.asprintf "%a vs %a" Nestir.Affine.pp a Nestir.Affine.pp b)
    QCheck.Gen.(pair gen_access gen_access)

let dep_props =
  [
    prop ~count:400 "GCD+Banerjee are conservative (no false negatives)"
      arb_access_pair (fun (a1, a2) ->
        let d = Reference.Domain.box [| 5; 5 |] in
        let exact = Reference.exact_test d d a1 a2 in
        let algebraic =
          Nestir.Dep.gcd_test a1 a2
          && Nestir.Dep.banerjee_test ~extent1:[| 5; 5 |] ~extent2:[| 5; 5 |] a1 a2
        in
        (* exact dependence implies the conservative tests fire *)
        (not exact) || algebraic);
  ]

let test_triangular_refines_banerjee () =
  (* write a(i - j), read a(1).  On the full box the write reaches
     a(1) (e.g. i = 2, j = 1).  On the upper triangle (i <= j) the
     written values are all <= 0, so there is no conflict — a
     refinement the rectangular Banerjee test cannot see. *)
  let w = Nestir.Affine.of_lists [ [ 1; -1 ] ] [ 0 ] in
  let r = Nestir.Affine.of_lists [ [ 0; 0 ] ] [ 1 ] in
  let box = Reference.Domain.box [| 4; 4 |] in
  Alcotest.(check bool) "box oracle sees a conflict" true
    (Reference.exact_test box box w r);
  Alcotest.(check bool) "rectangular banerjee fires too" true
    (Nestir.Dep.banerjee_test ~extent1:[| 4; 4 |] ~extent2:[| 4; 4 |] w r);
  let triangle =
    Reference.Domain.constrain (Reference.Domain.box [| 4; 4 |]) ~coeffs:[| 1; -1 |]
      ~bound:0
  in
  Alcotest.(check bool) "triangular domain refutes it" false
    (Reference.exact_test triangle triangle w r)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "nestir"
    [
      ( "affine",
        [
          Alcotest.test_case "apply" `Quick test_affine_apply;
          Alcotest.test_case "translation" `Quick test_affine_translation;
          Alcotest.test_case "bad constant" `Quick test_affine_bad_constant;
        ]
        @ affine_props );
      ( "loopnest",
        [
          Alcotest.test_case "validation" `Quick test_nest_validation;
          Alcotest.test_case "queries" `Quick test_nest_queries;
          Alcotest.test_case "unknown array" `Quick test_nest_unknown_array;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "all parallel" `Quick test_schedule_all_parallel;
          Alcotest.test_case "outer sequential" `Quick
            test_schedule_outer_sequential;
        ] );
      ( "dep",
        [
          Alcotest.test_case "gcd test" `Quick test_gcd_test;
          Alcotest.test_case "banerjee bounds" `Quick test_banerjee;
          Alcotest.test_case "example1 is doall" `Quick test_example1_doall;
          Alcotest.test_case "matmul dependences" `Quick test_matmul_deps;
          Alcotest.test_case "stencil doall" `Quick test_stencil_deps;
          Alcotest.test_case "example5 doall" `Quick test_example5_deps;
          Alcotest.test_case "reduction self-dependence" `Quick
            test_reduction_self_dep;
        ] );
      ( "lamport",
        [
          Alcotest.test_case "distance vectors" `Quick test_distance_vectors;
          Alcotest.test_case "seidel hyperplane" `Quick test_lamport_seidel;
          Alcotest.test_case "parallel nest" `Quick test_lamport_parallel_nest;
          Alcotest.test_case "non-uniform rejected" `Quick test_lamport_nonuniform;
          Alcotest.test_case "legality" `Quick test_lamport_legal;
        ] );
      ( "legality",
        [
          Alcotest.test_case "seidel" `Quick test_legality_seidel;
          Alcotest.test_case "matmul" `Quick test_legality_matmul;
          Alcotest.test_case "paper claims" `Quick test_legality_paper_claims;
          Alcotest.test_case "lamport schedules are legal" `Quick
            test_legality_agrees_with_lamport;
        ] );
      ("cprint", [ Alcotest.test_case "c output" `Quick test_cprint ]);
      ( "domain",
        [
          Alcotest.test_case "box" `Quick test_domain_box;
          Alcotest.test_case "triangular" `Quick test_domain_triangular;
          Alcotest.test_case "empty" `Quick test_domain_empty;
          Alcotest.test_case "triangular refines the box test" `Quick
            test_triangular_refines_banerjee;
        ]
        @ dep_props );
    ]
