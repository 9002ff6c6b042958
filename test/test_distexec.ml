(* Tests for running a mapped program on the distributed machine:
   execution in schedule order, a broadcast as explicit point-to-point
   rounds, the index sets each processor owns, and redistribution
   between layouts. *)

let prop ?(count = 150) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* Schedule-ordered execution                                          *)
(* ------------------------------------------------------------------ *)

let test_schedule_order_legal () =
  (* a legal hyperplane schedule survives adversarial within-timestep
     reordering *)
  let nest = Nestir.Paper_examples.seidel () in
  let lam = Option.get (Nestir.Schedule.lamport nest) in
  let r = Resopt.Pipeline.run ~schedule:lam nest in
  let s = Resopt.Distexec.run ~order:`Schedule r in
  Alcotest.(check bool) "legal schedule preserves semantics" true
    s.Resopt.Distexec.semantics_preserved

let test_schedule_order_illegal () =
  (* the all-parallel schedule is illegal on seidel: the adversarial
     order corrupts the results, exactly as Legality predicts *)
  let nest = Nestir.Paper_examples.seidel () in
  let ap = Nestir.Schedule.all_parallel nest in
  Alcotest.(check bool) "legality flags it" false (Reference.Legality.is_legal nest ap);
  let r = Resopt.Pipeline.run ~schedule:ap nest in
  let s = Resopt.Distexec.run ~order:`Schedule r in
  Alcotest.(check bool) "and execution confirms" false
    s.Resopt.Distexec.semantics_preserved

let test_schedule_order_agrees_with_legality () =
  (* on every workload: if Legality accepts the schedule, the
     adversarial execution preserves semantics *)
  List.iter
    (fun (w : Resopt.Workloads.t) ->
      if Reference.Legality.is_legal w.Resopt.Workloads.nest w.Resopt.Workloads.schedule
      then begin
        let r =
          Resopt.Pipeline.run ~schedule:w.Resopt.Workloads.schedule
            w.Resopt.Workloads.nest
        in
        let s = Resopt.Distexec.run ~order:`Schedule r in
        if not s.Resopt.Distexec.semantics_preserved then
          Alcotest.failf "%s: legal schedule but semantics broken"
            w.Resopt.Workloads.name
      end)
    (Resopt.Workloads.all ())

(* ------------------------------------------------------------------ *)
(* Collective rounds                                                   *)
(* ------------------------------------------------------------------ *)

let test_broadcast_rounds_cover () =
  let topo = Machine.Topology.mesh2d ~p:4 ~q:4 in
  let rounds = Reference.broadcast_rounds topo ~root:3 ~bytes:8 in
  Alcotest.(check int) "log2 16 rounds" 4 (List.length rounds);
  (* every rank receives exactly once; the root never receives *)
  let received = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (m : Machine.Message.t) ->
         Alcotest.(check bool) "no duplicate delivery" false
           (Hashtbl.mem received m.Machine.Message.dst);
         Hashtbl.replace received m.Machine.Message.dst ()))
    rounds;
  Alcotest.(check int) "15 receivers" 15 (Hashtbl.length received);
  Alcotest.(check bool) "root not a receiver" false (Hashtbl.mem received 3)

let test_broadcast_rounds_causal () =
  (* a sender in round r must have received in some round < r (or be
     the root) *)
  let topo = Machine.Topology.make [| 8 |] in
  let root = 2 in
  let holders = Hashtbl.create 8 in
  Hashtbl.replace holders root ();
  List.iter
    (fun round ->
      List.iter
        (fun (m : Machine.Message.t) ->
          if not (Hashtbl.mem holders m.Machine.Message.src) then
            Alcotest.failf "rank %d sends before receiving" m.Machine.Message.src)
        round;
      List.iter
        (fun (m : Machine.Message.t) ->
          Hashtbl.replace holders m.Machine.Message.dst ())
        round)
    (Reference.broadcast_rounds topo ~root ~bytes:8)

let test_simulated_vs_closed_form () =
  (* the simulated tree should be within a small factor of the closed
     form — same rounds, same payloads *)
  let topo = Machine.Topology.mesh2d ~p:4 ~q:4 in
  let p = { Machine.Netsim.alpha = 10.0; beta = 0.1; hop = 0.4 } in
  let sim = Reference.simulate_broadcast topo p ~root:0 ~bytes:64 in
  let closed = Machine.Collective.broadcast topo p ~bytes:64 in
  Alcotest.(check bool) "same order of magnitude" true
    (sim /. closed < 3.0 && closed /. sim < 3.0)

(* ------------------------------------------------------------------ *)
(* Layout ownership                                                    *)
(* ------------------------------------------------------------------ *)

let test_local_indices_block () =
  Alcotest.(check (list int)) "block owner 1" [ 3; 4; 5 ]
    (Reference.local_indices Distrib.Layout.Block ~nv:12 ~np:4 1)

let test_local_indices_grouped () =
  (* figure 6: processor 0 owns the first block of the grouped order *)
  Alcotest.(check (list int)) "grouped owner 0" [ 0; 3; 6 ]
    (List.sort compare
       (Reference.local_indices (Distrib.Layout.Grouped 3) ~nv:12 ~np:4 0))

let local_indices_props =
  let arb =
    QCheck.make
      ~print:(fun (s, nv, np) ->
        Format.asprintf "%a nv=%d np=%d" Distrib.Layout.pp_scheme s nv np)
      QCheck.Gen.(
        int_range 1 24 >>= fun nv ->
        int_range 1 6 >>= fun np ->
        oneofl
          [ Distrib.Layout.Block; Distrib.Layout.Cyclic;
            Distrib.Layout.Cyclic_block 2; Distrib.Layout.Grouped 4 ]
        >>= fun s -> return (s, nv, np))
  in
  [
    prop ~count:150 "local index sets partition the virtual axis" arb (fun (s, nv, np) ->
        let all =
          List.concat
            (List.init np (fun p -> Reference.local_indices s ~nv ~np p))
        in
        List.sort compare all = List.init nv (fun v -> v));
    prop ~count:150 "ownership is consistent with placement" arb (fun (s, nv, np) ->
        List.for_all
          (fun p ->
            List.for_all
              (fun v -> Distrib.Layout.place1d s ~nv ~np v = p)
              (Reference.local_indices s ~nv ~np p))
          (List.init np (fun p -> p)));
  ]

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

let () =
  Alcotest.run "distexec"
    [
      ( "schedule-order",
        [
          Alcotest.test_case "legal schedule survives" `Quick
            test_schedule_order_legal;
          Alcotest.test_case "illegal schedule corrupts" `Quick
            test_schedule_order_illegal;
          Alcotest.test_case "agrees with Legality on all workloads" `Quick
            test_schedule_order_agrees_with_legality;
        ] );
      ( "collective-rounds",
        [
          Alcotest.test_case "coverage" `Quick test_broadcast_rounds_cover;
          Alcotest.test_case "causality" `Quick test_broadcast_rounds_causal;
          Alcotest.test_case "matches the closed form" `Quick
            test_simulated_vs_closed_form;
        ] );
      ( "local-indices",
        [
          Alcotest.test_case "block" `Quick test_local_indices_block;
          Alcotest.test_case "grouped (figure 6)" `Quick test_local_indices_grouped;
        ]
        @ local_indices_props );
      ( "redistribute",
        [
          Alcotest.test_case "identity" `Quick test_redistribute_identity;
          Alcotest.test_case "moves data" `Quick test_redistribute_moves;
          Alcotest.test_case "break-even" `Quick test_redistribute_break_even;
        ] );
    ]
