(* Tests for schedule legality, automatic grid-dimension choice and
   the wormhole simulation mode. *)

let prop ?(count = 100) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* Legality                                                            *)
(* ------------------------------------------------------------------ *)

let test_legality_seidel () =
  let nest = Nestir.Paper_examples.seidel ~n:5 () in
  let lam = Option.get (Nestir.Schedule.lamport nest) in
  Alcotest.(check bool) "lamport legal" true (Resopt.Legality.is_legal nest lam);
  Alcotest.(check bool) "all-parallel illegal" false
    (Resopt.Legality.is_legal nest (Nestir.Schedule.all_parallel nest))

let test_legality_matmul () =
  let nest = Nestir.Paper_examples.matmul ~n:4 () in
  Alcotest.(check bool) "all-parallel illegal" false
    (Resopt.Legality.is_legal nest (Nestir.Schedule.all_parallel nest));
  (* the k loop carries the accumulation: sequential k is legal *)
  let seq_k = Nestir.Schedule.make [ ("S", Linalg.Mat.of_lists [ [ 0; 0; 1 ] ]) ] in
  Alcotest.(check bool) "k-sequential legal" true
    (Resopt.Legality.is_legal nest seq_k);
  (* and lamport finds a legal one on its own *)
  match Nestir.Schedule.lamport nest with
  | None -> Alcotest.fail "matmul is uniform"
  | Some s -> Alcotest.(check bool) "lamport legal" true (Resopt.Legality.is_legal nest s)

let test_legality_paper_claims () =
  (* the paper: Example 1 has no dependences, all loops DOALL *)
  let e1 = Nestir.Paper_examples.example1 ~n:5 ~m:5 () in
  Alcotest.(check bool) "example1 all-parallel legal" true
    (Resopt.Legality.is_legal e1 (Nestir.Schedule.all_parallel e1));
  (* Example 5: sequential outer loop, parallel inner loops *)
  let e5 = Nestir.Paper_examples.example5 ~n:4 () in
  Alcotest.(check bool) "example5 schedule legal" true
    (Resopt.Legality.is_legal e5 (Nestir.Paper_examples.example5_schedule e5));
  let stencil = Nestir.Paper_examples.stencil ~n:5 () in
  Alcotest.(check bool) "stencil all-parallel legal" true
    (Resopt.Legality.is_legal stencil (Nestir.Schedule.all_parallel stencil))

let test_legality_agrees_with_lamport () =
  (* whenever lamport produces a schedule for a uniform nest, it is
     legal by the enumeration check *)
  List.iter
    (fun nest ->
      match Nestir.Schedule.lamport nest with
      | None -> ()
      | Some s ->
        if not (Resopt.Legality.is_legal nest s) then
          Alcotest.failf "lamport schedule illegal on %s"
            nest.Nestir.Loopnest.nest_name)
    [
      Nestir.Paper_examples.seidel ~n:5 ();
      Nestir.Paper_examples.stencil ~n:5 ();
      Nestir.Paper_examples.matmul ~n:4 ();
      Nestir.Paper_examples.transpose ~n:5 ();
    ]

(* ------------------------------------------------------------------ *)
(* Autodim                                                             *)
(* ------------------------------------------------------------------ *)

let test_autodim_matmul () =
  let rows = Resopt.Autodim.evaluate (Nestir.Paper_examples.matmul ~n:6 ()) in
  Alcotest.(check int) "three candidates" 3 (List.length rows);
  (* the paper's trade-off: more grid dimensions, more residual cost *)
  let costs = List.map (fun (r : Resopt.Autodim.row) -> r.Resopt.Autodim.cost) rows in
  Alcotest.(check bool) "cost grows with m" true
    (match costs with [ a; b; c ] -> a <= b && b <= c | _ -> false)

let test_autodim_best () =
  Alcotest.(check int) "matmul prefers m=1" 1
    (Resopt.Autodim.best (Nestir.Paper_examples.matmul ~n:6 ()));
  (* a fully local nest is free at every m: ties go to the largest *)
  Alcotest.(check int) "example5 takes the largest m" 3
    (Resopt.Autodim.best (Nestir.Paper_examples.example5 ~n:4 ()))

(* ------------------------------------------------------------------ *)
(* Wormhole                                                            *)
(* ------------------------------------------------------------------ *)

let wh p = { p with Machine.Eventsim.mode = Machine.Eventsim.Wormhole }

let test_wormhole_single () =
  let topo = Machine.Topology.line 5 in
  let p = wh { Machine.Eventsim.bytes_per_cycle = 16; startup_cycles = 10; mode = Machine.Eventsim.Store_forward } in
  let r =
    Machine.Eventsim.run topo p
      (Reference.raw topo [ Machine.Message.make ~src:0 ~dst:4 ~bytes:160 ])
  in
  (* startup + hops + bytes/bw = 10 + 4 + 10 *)
  Alcotest.(check int) "pipeline latency" 24 r.Machine.Eventsim.cycles

let test_wormhole_vs_store_forward () =
  (* a long path with one message: wormhole pipelines the flits and
     wins; store-and-forward pays bytes/bw per hop *)
  let topo = Machine.Topology.line 8 in
  let base = { Machine.Eventsim.bytes_per_cycle = 16; startup_cycles = 10; mode = Machine.Eventsim.Store_forward } in
  let msgs = [ Machine.Message.make ~src:0 ~dst:7 ~bytes:1600 ] in
  let sf = Machine.Eventsim.run topo base (Reference.raw topo msgs) in
  let whr = Machine.Eventsim.run topo (wh base) (Reference.raw topo msgs) in
  Alcotest.(check bool) "wormhole faster on long paths" true
    (whr.Machine.Eventsim.cycles < sf.Machine.Eventsim.cycles)

let test_wormhole_contention () =
  (* two messages sharing a link serialize in both modes *)
  let topo = Machine.Topology.line 2 in
  let base = { Machine.Eventsim.bytes_per_cycle = 16; startup_cycles = 0; mode = Machine.Eventsim.Wormhole } in
  let one =
    Machine.Eventsim.run topo base
      (Reference.raw topo [ Machine.Message.make ~src:0 ~dst:1 ~bytes:160 ])
  in
  let two =
    Machine.Eventsim.run topo base
      (Reference.raw topo
         [
           Machine.Message.make ~src:0 ~dst:1 ~bytes:160;
           Machine.Message.make ~src:0 ~dst:1 ~bytes:160;
         ])
  in
  Alcotest.(check bool) "serialized" true
    (two.Machine.Eventsim.cycles >= 2 * one.Machine.Eventsim.cycles - 1)

let wormhole_props =
  let arb =
    QCheck.make
      ~print:(fun (s, d, b) -> Printf.sprintf "%d->%d %dB" s d b)
      QCheck.Gen.(triple (int_range 0 15) (int_range 0 15) (int_range 1 512))
  in
  [
    prop "both modes deliver everything" arb (fun (s, d, b) ->
        let topo = Machine.Topology.mesh2d ~p:4 ~q:4 in
        let msgs = [ Machine.Message.make ~src:s ~dst:d ~bytes:b ] in
        let base = Machine.Eventsim.default_params in
        let delivered p =
          (Machine.Eventsim.run topo p (Reference.raw topo msgs)).Machine.Eventsim.delivered
        in
        delivered base = 1 && delivered (wh base) = 1);
  ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "wave5"
    [
      ( "legality",
        [
          Alcotest.test_case "seidel" `Quick test_legality_seidel;
          Alcotest.test_case "matmul" `Quick test_legality_matmul;
          Alcotest.test_case "paper claims" `Quick test_legality_paper_claims;
          Alcotest.test_case "lamport schedules are legal" `Quick
            test_legality_agrees_with_lamport;
        ] );
      ( "autodim",
        [
          Alcotest.test_case "matmul trade-off" `Quick test_autodim_matmul;
          Alcotest.test_case "best choice" `Quick test_autodim_best;
        ] );
      ( "wormhole",
        [
          Alcotest.test_case "single message latency" `Quick test_wormhole_single;
          Alcotest.test_case "beats store-and-forward on long paths" `Quick
            test_wormhole_vs_store_forward;
          Alcotest.test_case "contention serializes" `Quick test_wormhole_contention;
        ]
        @ wormhole_props );
    ]
