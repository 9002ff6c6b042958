(* Golden snapshots of the paper's worked examples.  These pin the
   numbers the bench harness prints for Table 2 (direct vs decomposed
   cost of T = L.U on the Paragon model) and the Figure 4-5 broadcast
   rotation, so a regression anywhere in the linalg -> decomp ->
   distrib -> machine stack shows up as a changed constant, not as a
   silently different table. *)

open Linalg

let paper_t = Mat.of_lists [ [ 1; 2 ]; [ 3; 7 ] ]
let paper_l = Mat.of_lists [ [ 1; 0 ]; [ 3; 1 ] ]
let paper_u = Mat.of_lists [ [ 1; 2 ]; [ 0; 1 ] ]

let check_f1 name expected actual =
  Alcotest.(check string) name expected (Printf.sprintf "%.1f" actual)

(* ------------------------------------------------------------------ *)
(* Table 2: direct vs decomposed on the Paragon                        *)
(* ------------------------------------------------------------------ *)

let table2_times () =
  let par = Machine.Models.paragon () in
  let vgrid = [| 64; 32 |] in
  let layout = Distrib.Layout.all_cyclic 2 in
  let direct =
    (Distrib.Foldsim.time ~coalesce:false par ~layout ~vgrid ~flow:paper_t ())
      .Machine.Netsim.time
  in
  match
    Distrib.Foldsim.decomposed_time par ~layout ~vgrid
      ~factors:[ paper_l; paper_u ] ()
  with
  | [ u_phase; l_phase ] ->
    (direct, l_phase.Machine.Netsim.time, u_phase.Machine.Netsim.time)
  | _ -> Alcotest.fail "expected two phases for L.U"

let test_table2 () =
  let direct, tl, tu = table2_times () in
  check_f1 "not decomposed" "848.4" direct;
  check_f1 "L" "113.6" tl;
  check_f1 "U" "217.2" tu;
  check_f1 "L.U" "330.8" (tl +. tu);
  Alcotest.(check string) "direct / decomposed" "2.56"
    (Printf.sprintf "%.2f" (direct /. (tl +. tu)))

let test_min_factors () =
  Alcotest.(check bool) "T = L(3) . U(2)" true
    (Decomp.Decompose.min_factors paper_t = Some [ paper_l; paper_u ]);
  Alcotest.(check string) "rendered factorization" "L(3) * U(2)"
    (Format.asprintf "%a" Decomp.Decompose.pp_factors [ paper_l; paper_u ])

(* ------------------------------------------------------------------ *)
(* Figures 4-5: the broadcast rotation of Example 1, F6                *)
(* ------------------------------------------------------------------ *)

let test_fig45 () =
  let f6 = Nestir.Paper_examples.example1_f 6 in
  let ms = Mat.of_lists [ [ 1; 1; 0 ]; [ 0; 1; 0 ] ] in
  (match Macrocomm.Broadcast.detect ~theta:(Mat.zero 1 3) ~f:f6 ~ms with
  | Some info ->
    Alcotest.(check string) "before rotation"
      "partial broadcast (p = 1), directions [1; -1]"
      (Format.asprintf "%a" Macrocomm.Broadcast.pp info)
  | None -> Alcotest.fail "F6 not detected as a broadcast");
  let v =
    match Macrocomm.Axis.aligning_matrix (Mat.of_col [| 1; -1 |]) with
    | Some v -> v
    | None -> Alcotest.fail "no aligning rotation for [1; -1]"
  in
  Alcotest.(check string) "rotation matrix" "[1 0; 1 1]"
    (Format.asprintf "%a" Mat.pp_flat v);
  match Macrocomm.Broadcast.detect ~theta:(Mat.zero 1 3) ~f:f6 ~ms:(Mat.mul v ms) with
  | Some info ->
    Alcotest.(check string) "after rotation"
      "partial broadcast (p = 1, axis-aligned), directions [1; 0]"
      (Format.asprintf "%a" Macrocomm.Broadcast.pp info)
  | None -> Alcotest.fail "rotated F6 not detected as a broadcast"

(* ------------------------------------------------------------------ *)
(* The §4.2 exhaustive scan at bound 3                                 *)
(* ------------------------------------------------------------------ *)

let test_search_bound3 () =
  let h = Decomp.Search.factor_histogram ~bound:3 () in
  Alcotest.(check int) "det-1 matrices" 116 h.Decomp.Search.total;
  Alcotest.(check (array int)) "factor counts" [| 1; 12; 36; 62; 5 |]
    h.Decomp.Search.by_factors;
  Alcotest.(check int) "none beyond four" 0 h.Decomp.Search.beyond_four

let () =
  Alcotest.run "golden"
    [
      ( "table2",
        [
          Alcotest.test_case "costs" `Quick test_table2;
          Alcotest.test_case "factorization" `Quick test_min_factors;
        ] );
      ( "fig45",
        [
          Alcotest.test_case "rotation" `Quick test_fig45;
        ] );
      ("search", [ Alcotest.test_case "bound 3 histogram" `Quick test_search_bound3 ]);
    ]
