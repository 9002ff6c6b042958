(* Tests for macro-communication detection (paper §3): broadcasts,
   scatters, gathers, reductions, axis alignment, vectorization. *)

open Linalg
open Macrocomm

let mat = Alcotest.testable Mat.pp_flat Mat.equal
let m_of = Mat.of_lists

let prop ?(count = 200) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let zero_theta d = Mat.zero 1 d

(* ------------------------------------------------------------------ *)
(* Broadcast                                                           *)
(* ------------------------------------------------------------------ *)

let test_broadcast_partial () =
  (* Example 2: S(i,j) reads a(i); every j reads the same element *)
  let f = m_of [ [ 1; 0 ] ] in
  let ms = Mat.identity 2 in
  match Broadcast.detect ~theta:(zero_theta 2) ~f ~ms with
  | None -> Alcotest.fail "broadcast expected"
  | Some info ->
    Alcotest.(check int) "p = 1" 1 info.Broadcast.p;
    Alcotest.(check bool) "partial" true
      (info.Broadcast.classification = Broadcast.Partial);
    Alcotest.(check bool) "axis aligned" true info.Broadcast.axis_aligned;
    Alcotest.check mat "direction = e2" (Mat.of_col [| 0; 1 |])
      info.Broadcast.directions

let test_broadcast_hidden () =
  (* mapping kills the broadcast direction *)
  let f = m_of [ [ 1; 0 ] ] in
  let ms = m_of [ [ 1; 0 ] ] in
  (* m = 1 *)
  match Broadcast.detect ~theta:(zero_theta 2) ~f ~ms with
  | None -> Alcotest.fail "kernel non-trivial"
  | Some info ->
    Alcotest.(check bool) "hidden" true
      (info.Broadcast.classification = Broadcast.Hidden)

let test_broadcast_total () =
  (* scalar-like access: everything reads a(0,0) *)
  let f = m_of [ [ 0; 0 ]; [ 0; 0 ] ] in
  let ms = Mat.identity 2 in
  match Broadcast.detect ~theta:(zero_theta 2) ~f ~ms with
  | None -> Alcotest.fail "broadcast expected"
  | Some info ->
    Alcotest.(check bool) "total" true
      (info.Broadcast.classification = Broadcast.Total)

let test_broadcast_none () =
  (* injective access, nothing shared *)
  let f = Mat.identity 2 in
  Alcotest.(check bool) "no broadcast" true
    (Broadcast.detect ~theta:(zero_theta 2) ~f ~ms:(Mat.identity 2) = None)

let test_broadcast_schedule_kills () =
  (* sequential schedule along the kernel direction: reads happen at
     different timesteps, no broadcast *)
  let f = m_of [ [ 1; 0 ] ] in
  let theta = m_of [ [ 0; 1 ] ] in
  Alcotest.(check bool) "no broadcast under schedule" true
    (Broadcast.detect ~theta ~f ~ms:(Mat.identity 2) = None)

let test_broadcast_misaligned () =
  (* Example 1 residual F6 with the unrotated mapping: direction
     (1,-1), not parallel to an axis *)
  let f = Nestir.Paper_examples.example1_f 6 in
  let ms = m_of [ [ 1; 1; 0 ]; [ 0; 1; 0 ] ] in
  match Broadcast.detect ~theta:(zero_theta 3) ~f ~ms with
  | None -> Alcotest.fail "broadcast expected"
  | Some info ->
    Alcotest.(check int) "p = 1" 1 info.Broadcast.p;
    Alcotest.(check bool) "not axis aligned" false info.Broadcast.axis_aligned;
    Alcotest.check mat "direction (1,-1)" (Mat.of_col [| 1; -1 |])
      info.Broadcast.directions

(* ------------------------------------------------------------------ *)
(* Scatter / gather                                                    *)
(* ------------------------------------------------------------------ *)

let test_spread_scatter () =
  (* 3-D array read via the identity, owner collapses the k axis:
     one owner holds a(i,j,.) and feeds processors (i,j,k) *)
  let f = Mat.identity 3 in
  let ma = m_of [ [ 1; 0; 0 ]; [ 0; 1; 0 ] ] in
  let ms = m_of [ [ 1; 0; 0 ]; [ 0; 0; 1 ] ] in
  match Spread.detect ~theta:(zero_theta 3) ~f ~ms ~ma with
  | None -> Alcotest.fail "spread expected"
  | Some info ->
    Alcotest.(check int) "p = 1" 1 info.Spread.p;
    Alcotest.(check bool) "distinct data" true info.Spread.distinct_data;
    Alcotest.(check bool) "partial" true
      (info.Spread.classification = Spread.Partial)

let test_spread_degenerates_to_broadcast () =
  (* if the moving direction does not change the element, the data is
     identical: a broadcast, not a scatter *)
  let f = m_of [ [ 1; 0 ]; [ 0; 0 ] ] in
  let ma = Mat.identity 2 in
  let ms = Mat.identity 2 in
  match Spread.detect ~theta:(zero_theta 2) ~f ~ms ~ma with
  | None -> Alcotest.fail "kernel non-trivial"
  | Some info ->
    Alcotest.(check bool) "identical data" false info.Spread.distinct_data

let test_spread_hidden () =
  let f = Mat.identity 3 in
  let ma = m_of [ [ 1; 0; 0 ]; [ 0; 1; 0 ] ] in
  (* ms collapses the same direction as ma: p = 0 *)
  let ms = m_of [ [ 1; 0; 0 ]; [ 0; 1; 0 ] ] in
  match Spread.detect ~theta:(zero_theta 3) ~f ~ms ~ma with
  | None -> Alcotest.fail "kernel non-trivial"
  | Some info ->
    Alcotest.(check bool) "hidden" true (info.Spread.classification = Spread.Hidden)

(* ------------------------------------------------------------------ *)
(* Reduction                                                           *)
(* ------------------------------------------------------------------ *)

let test_reduction_detect () =
  (* s = s + b(i,j) on a 1-D grid: processor i combines the values
     b(i, .) owned by processors j *)
  let f = Mat.identity 2 in
  let ms = m_of [ [ 1; 0 ] ] in
  let mb = m_of [ [ 0; 1 ] ] in
  match Reduction.detect ~theta:(zero_theta 2) ~f ~ms ~mb with
  | None -> Alcotest.fail "reduction expected"
  | Some info -> Alcotest.(check int) "fan dim 1" 1 info.Reduction.p

let test_reduction_none_when_owner_same () =
  (* values combined already live on the computing processor *)
  let f = Mat.identity 2 in
  let ms = m_of [ [ 1; 0 ] ] in
  let mb = m_of [ [ 1; 0 ] ] in
  Alcotest.(check bool) "no incoming fan" true
    (Reduction.detect ~theta:(zero_theta 2) ~f ~ms ~mb = None)

(* ------------------------------------------------------------------ *)
(* Axis alignment                                                      *)
(* ------------------------------------------------------------------ *)

(* exactly [rank D] rows of [D] are non-zero *)
let is_axis_aligned d = Kernelutil.nonzero_rows d = Ratmat.rank_of_mat d

let test_axis_paper_rotation () =
  (* the Example 1 rotation: direction (1,-1) becomes axis-parallel *)
  let d = Mat.of_col [| 1; -1 |] in
  Alcotest.(check bool) "misaligned" false (is_axis_aligned d);
  match Axis.aligning_matrix d with
  | None -> Alcotest.fail "alignable"
  | Some v ->
    Alcotest.(check bool) "unimodular" true (Unimodular.is_unimodular v);
    Alcotest.(check bool) "aligned after rotation" true
      (is_axis_aligned (Mat.mul v d))

let test_axis_zero () =
  Alcotest.(check bool) "zero has no alignment work" true
    (Axis.aligning_matrix (Mat.zero 2 1) = None)

let axis_props =
  let gen =
    QCheck.Gen.(
      int_range 2 3 >>= fun m ->
      int_range 1 2 >>= fun k ->
      map
        (fun entries -> Mat.make m k (fun i j -> entries.(i).(j)))
        (array_size (return m) (array_size (return k) (int_range (-4) 4))))
  in
  let arb = QCheck.make ~print:(Format.asprintf "%a" Mat.pp_flat) gen in
  [
    prop "aligning matrix straightens any non-zero D" arb (fun d ->
        QCheck.assume (not (Mat.is_zero d));
        match Axis.aligning_matrix d with
        | None -> false
        | Some v ->
          Unimodular.is_unimodular v && is_axis_aligned (Mat.mul v d));
    prop "rotation preserves rank" arb (fun d ->
        QCheck.assume (not (Mat.is_zero d));
        match Axis.aligning_matrix d with
        | None -> false
        | Some v -> Ratmat.rank_of_mat (Mat.mul v d) = Ratmat.rank_of_mat d);
  ]

(* ------------------------------------------------------------------ *)
(* Vectorization                                                       *)
(* ------------------------------------------------------------------ *)

let test_vectorize () =
  (* aligned access: trivially vectorizable *)
  let ms = m_of [ [ 1; 0; 0 ]; [ 0; 1; 0 ] ] in
  let ma = Mat.identity 2 in
  let f = m_of [ [ 1; 0; 0 ]; [ 0; 1; 0 ] ] in
  Alcotest.(check bool) "aligned is vectorizable" true
    (Vectorize.vectorizable ~ms ~ma ~f);
  (* data moves with the dimension that M_S drops: not vectorizable *)
  let f_bad = m_of [ [ 0; 0; 1 ]; [ 0; 1; 0 ] ] in
  Alcotest.(check bool) "moving data not vectorizable" false
    (Vectorize.vectorizable ~ms ~ma ~f:f_bad)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "macrocomm"
    [
      ( "broadcast",
        [
          Alcotest.test_case "partial (example 2)" `Quick test_broadcast_partial;
          Alcotest.test_case "hidden" `Quick test_broadcast_hidden;
          Alcotest.test_case "total" `Quick test_broadcast_total;
          Alcotest.test_case "absent" `Quick test_broadcast_none;
          Alcotest.test_case "schedule kills it" `Quick
            test_broadcast_schedule_kills;
          Alcotest.test_case "misaligned direction (example 1)" `Quick
            test_broadcast_misaligned;
        ] );
      ( "spread",
        [
          Alcotest.test_case "scatter" `Quick test_spread_scatter;
          Alcotest.test_case "degenerates to broadcast" `Quick
            test_spread_degenerates_to_broadcast;
          Alcotest.test_case "hidden" `Quick test_spread_hidden;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "detect" `Quick test_reduction_detect;
          Alcotest.test_case "absent when owner same" `Quick
            test_reduction_none_when_owner_same;
        ] );
      ( "axis",
        [
          Alcotest.test_case "paper rotation" `Quick test_axis_paper_rotation;
          Alcotest.test_case "zero direction" `Quick test_axis_zero;
        ]
        @ axis_props );
      ("vectorize", [ Alcotest.test_case "criterion" `Quick test_vectorize ]);
    ]
