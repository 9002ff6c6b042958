(* Tests for the third extension wave: Pathcheck, HPF directives,
   Lamport scheduling, traffic traces, continued fractions and the
   sweep driver. *)

open Linalg

let prop ?(count = 200) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* Pathcheck                                                           *)
(* ------------------------------------------------------------------ *)

let rm m = Ratmat.of_mat (Mat.of_lists m)

let test_pathcheck_always () =
  (* the Example 1 addition: F2 G4 F7 = F8 exactly *)
  let f2 = Nestir.Paper_examples.example1_f 2 in
  let g4 = Mat.of_lists [ [ 1; 0; 0 ]; [ 0; 1; 0 ] ] in
  let f7 = Nestir.Paper_examples.example1_f 7 in
  let f8 = Nestir.Paper_examples.example1_f 8 in
  match
    Alignment.Pathcheck.multiple_paths ~dim_root:2
      [ Ratmat.of_mat f2; Ratmat.of_mat g4; Ratmat.of_mat f7 ]
      [ Ratmat.of_mat f8 ]
  with
  | Alignment.Pathcheck.Always -> ()
  | _ -> Alcotest.fail "paths agree exactly"

let test_pathcheck_never () =
  (* F3 against the F2 path: full-rank difference *)
  let f2 = Nestir.Paper_examples.example1_f 2 in
  let f3 = Nestir.Paper_examples.example1_f 3 in
  match
    Alignment.Pathcheck.multiple_paths ~dim_root:2 [ Ratmat.of_mat f2 ]
      [ Ratmat.of_mat f3 ]
  with
  | Alignment.Pathcheck.Never -> ()
  | _ -> Alcotest.fail "full-rank difference"

let test_pathcheck_conditional () =
  let p1 = rm [ [ 1; 0 ]; [ 0; 1 ] ] in
  let p2 = rm [ [ 1; 1 ]; [ 0; 2 ] ] in
  (match Alignment.Pathcheck.multiple_paths ~dim_root:2 [ p1 ] [ p2 ] with
  | Alignment.Pathcheck.Conditionally d ->
    Alcotest.(check int) "rank 1" 1 (Ratmat.rank d);
    Alcotest.(check bool) "m=1 feasible" true
      (Alignment.Pathcheck.feasible_roots ~m:1 d);
    Alcotest.(check bool) "m=2 infeasible" false
      (Alignment.Pathcheck.feasible_roots ~m:2 d)
  | _ -> Alcotest.fail "deficient-rank difference");
  (* identity cycle *)
  match Alignment.Pathcheck.cycle ~dim_root:2 [ p1; p1 ] with
  | Alignment.Pathcheck.Always -> ()
  | _ -> Alcotest.fail "identity cycle"

(* ------------------------------------------------------------------ *)
(* HPF directives                                                      *)
(* ------------------------------------------------------------------ *)

let test_hpf_roundtrip () =
  let layouts =
    [
      [| Distrib.Layout.Block; Distrib.Layout.Cyclic |];
      [| Distrib.Layout.Cyclic_block 4; Distrib.Layout.Grouped 3 |];
      [| Distrib.Layout.Block |];
    ]
  in
  List.iter
    (fun l ->
      let s = Distrib.Hpf.print l in
      match Distrib.Hpf.parse s with
      | Ok l' -> Alcotest.(check string) ("round-trip " ^ s) s (Distrib.Hpf.print l')
      | Error e -> Alcotest.failf "%s: %s" s e)
    layouts

let test_hpf_parse () =
  (match Distrib.Hpf.parse "( block , CYCLIC(2) )" with
  | Ok [| Distrib.Layout.Block; Distrib.Layout.Cyclic_block 2 |] -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Distrib.Hpf.parse "(SPIRAL)"));
  Alcotest.(check bool) "missing parens rejected" true
    (Result.is_error (Distrib.Hpf.parse "BLOCK"))

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
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_heatmap () =
  let topo = Machine.Topology.mesh2d ~p:2 ~q:2 in
  let msgs = [ Machine.Message.make ~src:0 ~dst:3 ~bytes:100 ] in
  let map = Machine.Trace.load_heatmap topo (Machine.Message.of_list msgs) in
  (* node 0 hot, others idle; 2 columns -> two lines *)
  Alcotest.(check bool) "node 0 marked" true (map.[0] <> '.');
  Alcotest.(check int) "two lines" 2
    (List.length (String.split_on_char '\n' (String.trim map)))

let test_trace_link_table () =
  let topo = Machine.Topology.line 3 in
  let msgs = [ Machine.Message.make ~src:0 ~dst:2 ~bytes:10 ] in
  let table = Machine.Trace.link_table topo (Machine.Message.of_list msgs) in
  Alcotest.(check int) "two links listed" 2
    (List.length (String.split_on_char '\n' (String.trim table)))

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
      ~print:(fun fs -> Mat.to_string (Decomp.Elementary.product (Mat.identity 2 :: fs)))
      gen_det1
  in
  [
    prop "expansion reconstructs the fraction" (QCheck.make
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
    prop "euclid length within the bound" arb (fun fs ->
        let t = Decomp.Elementary.product (Mat.identity 2 :: fs) in
        List.length (Decomp.Decompose.euclid t) <= Decomp.Cfrac.length_bound t + 1);
  ]

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

let test_sweep () =
  let rows = Resopt.Sweep.run () in
  let workloads = List.length (Resopt.Workloads.all ()) in
  Alcotest.(check int) "rows = workloads x models" (workloads * 3)
    (List.length rows);
  List.iter
    (fun (r : Resopt.Sweep.row) ->
      Alcotest.(check bool) (r.Resopt.Sweep.workload ^ " validated") true
        r.Resopt.Sweep.validated;
      Alcotest.(check bool)
        (r.Resopt.Sweep.workload ^ " optimized <= baseline")
        true
        (r.Resopt.Sweep.optimized <= r.Resopt.Sweep.baseline +. 1e-6))
    rows

(* ------------------------------------------------------------------ *)
(* Redistribution                                                      *)
(* ------------------------------------------------------------------ *)

let test_redistribute_identity () =
  (* same layout: nothing moves *)
  let par = Machine.Models.paragon () in
  let l = Distrib.Layout.all_cyclic 2 in
  let s = Distrib.Redistribute.time par ~vgrid:[| 16; 8 |] ~from_layout:l ~to_layout:l () in
  Alcotest.(check int) "no messages" 0 s.Machine.Netsim.messages

let test_redistribute_moves () =
  let par = Machine.Models.paragon () in
  let s =
    Distrib.Redistribute.time par ~vgrid:[| 16; 8 |]
      ~from_layout:(Distrib.Layout.all_block 2)
      ~to_layout:(Distrib.Layout.all_cyclic 2) ()
  in
  Alcotest.(check bool) "data moves" true (s.Machine.Netsim.messages > 0)

let test_redistribute_break_even () =
  (* adopting GROUPED(6) for a U_6 communication pays off after a
     finite number of repetitions *)
  let par = Machine.Models.paragon ~p:16 ~q:4 () in
  let u6 = Linalg.Mat.of_lists [ [ 1; 6 ]; [ 0; 1 ] ] in
  match
    Distrib.Redistribute.break_even par ~vgrid:[| 120; 8 |]
      ~from_layout:[| Distrib.Layout.Block; Distrib.Layout.Block |]
      ~to_layout:[| Distrib.Layout.Grouped 6; Distrib.Layout.Block |]
      ~flow:u6
  with
  | Some n -> Alcotest.(check bool) "finite break-even" true (n >= 1 && n < 1000)
  | None -> Alcotest.fail "grouped should win eventually"

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
(* The seidel workload end-to-end                                      *)
(* ------------------------------------------------------------------ *)

let test_seidel_workload () =
  let w = Resopt.Workloads.find "seidel" in
  let r = Resopt.Pipeline.run ~schedule:w.Resopt.Workloads.schedule w.Resopt.Workloads.nest in
  Alcotest.(check int) "all local or shifts" 0 (Resopt.Pipeline.non_local r);
  Alcotest.(check bool) "validated" true (Resopt.Validate.is_valid r)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "wave3"
    [
      ( "pathcheck",
        [
          Alcotest.test_case "always (example 1 F8)" `Quick test_pathcheck_always;
          Alcotest.test_case "never (example 1 F3)" `Quick test_pathcheck_never;
          Alcotest.test_case "conditional and cycles" `Quick
            test_pathcheck_conditional;
        ] );
      ( "hpf",
        [
          Alcotest.test_case "round-trip" `Quick test_hpf_roundtrip;
          Alcotest.test_case "parse" `Quick test_hpf_parse;
        ] );
      ( "lamport",
        [
          Alcotest.test_case "distance vectors" `Quick test_distance_vectors;
          Alcotest.test_case "seidel hyperplane" `Quick test_lamport_seidel;
          Alcotest.test_case "parallel nest" `Quick test_lamport_parallel_nest;
          Alcotest.test_case "non-uniform rejected" `Quick test_lamport_nonuniform;
          Alcotest.test_case "legality" `Quick test_lamport_legal;
        ] );
      ( "trace",
        [
          Alcotest.test_case "heatmap" `Quick test_trace_heatmap;
          Alcotest.test_case "link table" `Quick test_trace_link_table;
        ] );
      ( "cfrac",
        [ Alcotest.test_case "expansion" `Quick test_cfrac_expansion ] @ cfrac_props
      );
      ("sweep", [ Alcotest.test_case "full sweep" `Quick test_sweep ]);
      ( "redistribute",
        [
          Alcotest.test_case "identity" `Quick test_redistribute_identity;
          Alcotest.test_case "moves data" `Quick test_redistribute_moves;
          Alcotest.test_case "break-even" `Quick test_redistribute_break_even;
        ] );
      ("cprint", [ Alcotest.test_case "c output" `Quick test_cprint ]);
      ("seidel", [ Alcotest.test_case "workload" `Quick test_seidel_workload ]);
    ]
