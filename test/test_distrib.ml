(* Tests for the data distributions, the grouped partition, the
   folding simulator and HPF directives. *)

open Distrib

let prop ?(count = 200) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* 1-D schemes                                                         *)
(* ------------------------------------------------------------------ *)

let test_block () =
  let p v = Layout.place1d Layout.Block ~nv:12 ~np:4 v in
  Alcotest.(check (list int)) "block"
    [ 0; 0; 0; 1; 1; 1; 2; 2; 2; 3; 3; 3 ]
    (List.init 12 p)

let test_cyclic () =
  let p v = Layout.place1d Layout.Cyclic ~nv:8 ~np:3 v in
  Alcotest.(check (list int)) "cyclic" [ 0; 1; 2; 0; 1; 2; 0; 1 ] (List.init 8 p)

let test_cyclic_block () =
  let p v = Layout.place1d (Layout.Cyclic_block 2) ~nv:8 ~np:2 v in
  Alcotest.(check (list int)) "cyclic(2)" [ 0; 0; 1; 1; 0; 0; 1; 1 ] (List.init 8 p)

let test_grouped_figure6 () =
  (* Figure 6: 12 virtual processors, k = 3, P = 4.  The grouped order
     is 0 3 6 9 | 1 4 7 10 | 2 5 8 11 and blocks of three go to each
     physical processor. *)
  Alcotest.(check (list (list int))) "classes"
    [ [ 0; 3; 6; 9 ]; [ 1; 4; 7; 10 ]; [ 2; 5; 8; 11 ] ]
    (Grouped.classes ~k:3 ~nv:12);
  Alcotest.(check (list (pair int int))) "distribution row"
    [
      (0, 0); (3, 0); (6, 0); (9, 1); (1, 1); (4, 1); (7, 2); (10, 2); (2, 2);
      (5, 3); (8, 3); (11, 3);
    ]
    (Grouped.distribution_row ~k:3 ~nv:12 ~np:4)

let test_grouped_intra_class_local () =
  (* within a class, a shift by k moves to the same or the adjacent
     position: with class size <= block size everything stays local *)
  let k = 4 and nv = 32 and np = 8 in
  (* class size 8, block size 4: each class spans 2 processors *)
  let p v = Layout.place1d (Layout.Grouped k) ~nv ~np v in
  (* v and v + k are adjacent in the grouped order *)
  let ok = ref true in
  for v = 0 to nv - k - 1 do
    let d = abs (p (v + k) - p v) in
    if d > 1 then ok := false
  done;
  Alcotest.(check bool) "shift by k moves at most one processor" true !ok

let layout_props =
  let arb_scheme =
    QCheck.make
      ~print:(fun (s, nv, np, v) ->
        Format.asprintf "%a nv=%d np=%d v=%d" Layout.pp_scheme s nv np v)
      QCheck.Gen.(
        int_range 1 24 >>= fun nv ->
        int_range 1 8 >>= fun np ->
        int_range 0 (nv - 1) >>= fun v ->
        oneofl
          [ Layout.Block; Layout.Cyclic; Layout.Cyclic_block 3; Layout.Grouped 3 ]
        >>= fun s -> return (s, nv, np, v))
  in
  [
    prop "place1d lands in range" arb_scheme (fun (s, nv, np, v) ->
        let p = Layout.place1d s ~nv ~np v in
        p >= 0 && p < np);
    prop "position1d is a permutation for grouped"
      (QCheck.make ~print:(fun (k, nv) -> Printf.sprintf "k=%d nv=%d" k nv)
         QCheck.Gen.(pair (int_range 1 6) (int_range 1 24)))
      (fun (k, nv) ->
        let sz = (nv + k - 1) / k in
        let pos = List.init nv (fun v -> Layout.position1d (Layout.Grouped k) ~nv v) in
        List.length (List.sort_uniq compare pos) = nv
        && List.for_all (fun p -> p >= 0 && p < k * sz) pos);
  ]

(* ------------------------------------------------------------------ *)
(* 2-D place                                                           *)
(* ------------------------------------------------------------------ *)

let test_place_2d () =
  let topo = Machine.Topology.mesh2d ~p:4 ~q:2 in
  let layout = [| Layout.Cyclic; Layout.Block |] in
  let r = Layout.place layout ~vgrid:[| 8; 6 |] ~topo [| 5; 4 |] in
  (* 5 mod 4 = 1; 4 / 3 = 1 -> coords (1,1) -> rank 3 *)
  Alcotest.(check int) "rank" 3 r;
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Layout.place: dimension mismatch") (fun () ->
      ignore (Layout.place layout ~vgrid:[| 8 |] ~topo [| 1 |]));
  Alcotest.check_raises "axes dimension mismatch"
    (Invalid_argument "Layout.axes: dimension mismatch") (fun () ->
      ignore (Layout.axes layout ~vgrid:[| 8 |] ~topo))

(* ------------------------------------------------------------------ *)
(* Foldsim                                                             *)
(* ------------------------------------------------------------------ *)

let paper_t = Linalg.Mat.of_lists [ [ 1; 2 ]; [ 3; 7 ] ]
let paper_l = Linalg.Mat.of_lists [ [ 1; 0 ]; [ 3; 1 ] ]
let paper_u = Linalg.Mat.of_lists [ [ 1; 2 ]; [ 0; 1 ] ]

let test_foldsim_decomposition_wins () =
  (* Table 2's shape: on the Paragon model, the direct (generic)
     communication loses to the L then U sequence, and the U phase
     costs more than the L phase (larger grid dimension). *)
  let par = Machine.Models.paragon () in
  let vgrid = [| 64; 32 |] in
  let layout = Layout.all_cyclic 2 in
  let direct = Foldsim.time ~coalesce:false par ~layout ~vgrid ~flow:paper_t () in
  match Foldsim.decomposed_time par ~layout ~vgrid ~factors:[ paper_l; paper_u ] () with
  | [ u_phase; l_phase ] ->
    let tlu = u_phase.Machine.Netsim.time +. l_phase.Machine.Netsim.time in
    Alcotest.(check bool) "LU faster than direct" true
      (tlu < direct.Machine.Netsim.time);
    Alcotest.(check bool) "U more expensive than L" true
      (u_phase.Machine.Netsim.time > l_phase.Machine.Netsim.time)
  | _ -> Alcotest.fail "two phases"

let test_foldsim_phases_compose () =
  (* executing the factors phase by phase delivers each item where the
     direct flow would, provided the factor coefficients annihilate
     modulo the grid (k_U * N_j = 0 mod N_i and k_L * N_i = 0 mod N_j):
     then wrapping between phases is harmless.  16x8 satisfies this for
     U(2), L(3). *)
  let vgrid = [| 16; 8 |] in
  let wrap v = Array.map2 (fun x e -> ((x mod e) + e) mod e) v vgrid in
  Machine.Patterns.iter_box vgrid (fun v ->
      let direct = wrap (Linalg.Mat.mul_vec paper_t v) in
      let after_u = wrap (Linalg.Mat.mul_vec paper_u v) in
      let after_lu = wrap (Linalg.Mat.mul_vec paper_l after_u) in
      if direct <> after_lu then
        Alcotest.failf "phase composition mismatch at (%d,%d)" v.(0) v.(1))

let test_foldsim_grouped_beats_block () =
  (* Figure 8's shape: for U_k communications the grouped partition
     beats BLOCK and CYCLIC(B), increasingly so as k grows *)
  let par = Machine.Models.paragon ~p:16 ~q:4 () in
  let vgrid = [| 840; 8 |] in
  let ratio k scheme =
    let uk = Linalg.Mat.of_lists [ [ 1; k ]; [ 0; 1 ] ] in
    let t l =
      (Foldsim.time par ~layout:[| l; Layout.Block |] ~vgrid ~flow:uk ())
        .Machine.Netsim.time
    in
    t scheme /. t (Layout.Grouped k)
  in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "block/grouped >= 1 at k=%d" k)
        true
        (ratio k Layout.Block >= 1.0);
      Alcotest.(check bool)
        (Printf.sprintf "cyclic(8)/grouped >= 1 at k=%d" k)
        true
        (ratio k (Layout.Cyclic_block 8) >= 1.0))
    [ 2; 4; 8 ];
  Alcotest.(check bool) "block ratio grows with k" true
    (ratio 8 Layout.Block > ratio 2 Layout.Block)

let test_foldsim_total_time () =
  Alcotest.(check (float 0.0)) "empty" 0.0 (Foldsim.total_time [])

(* ------------------------------------------------------------------ *)
(* HPF directives                                                      *)
(* ------------------------------------------------------------------ *)

let test_hpf_print () =
  List.iter
    (fun (l, s) -> Alcotest.(check string) s s (Distrib.Hpf.print l))
    [
      ([| Distrib.Layout.Block; Distrib.Layout.Cyclic |], "(BLOCK, CYCLIC)");
      ( [| Distrib.Layout.Cyclic_block 4; Distrib.Layout.Grouped 3 |],
        "(CYCLIC(4), GROUPED(3))" );
      ([| Distrib.Layout.Block |], "(BLOCK)");
    ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "distrib"
    [
      ( "layout",
        [
          Alcotest.test_case "block" `Quick test_block;
          Alcotest.test_case "cyclic" `Quick test_cyclic;
          Alcotest.test_case "cyclic block" `Quick test_cyclic_block;
          Alcotest.test_case "grouped (figure 6)" `Quick test_grouped_figure6;
          Alcotest.test_case "grouped locality" `Quick
            test_grouped_intra_class_local;
          Alcotest.test_case "2-D place" `Quick test_place_2d;
        ]
        @ layout_props );
      ( "foldsim",
        [
          Alcotest.test_case "decomposition wins (table 2 shape)" `Quick
            test_foldsim_decomposition_wins;
          Alcotest.test_case "phases compose" `Quick test_foldsim_phases_compose;
          Alcotest.test_case "grouped beats block (figure 8 shape)" `Slow
            test_foldsim_grouped_beats_block;
          Alcotest.test_case "total time" `Quick test_foldsim_total_time;
        ] );
      ( "hpf",
        [
          Alcotest.test_case "print" `Quick test_hpf_print;
        ] );
    ]
