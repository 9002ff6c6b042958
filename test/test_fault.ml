(* Tests for the fault-injection subsystem: spec grammar, seeded
   determinism (including under Par fan-out), rerouting around severed
   links, the retransmission protocol edges and the delivery
   invariant. *)

open Machine

let prop ?(count = 100) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* Spec grammar                                                        *)
(* ------------------------------------------------------------------ *)

let test_parse_roundtrip () =
  let spec = "flaky:0.05;down:3-4;down:1-2:100-200;degrade:0.5;dead:7" in
  match Fault.parse spec with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok specs -> (
    Alcotest.(check int) "five items" 5 (List.length specs);
    match Fault.parse (Fault.to_string specs) with
    | Error e -> Alcotest.failf "re-parse failed: %s" e
    | Ok specs' ->
      Alcotest.(check bool) "round-trips" true (specs = specs'))

let test_parse_errors () =
  List.iter
    (fun bad ->
      match Fault.parse bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error _ -> ())
    [ "flaky"; "flaky:2.0"; "down:3"; "degrade:0"; "dead:x"; "nonsense:1"; "" ]

let test_make_validates () =
  Alcotest.check_raises "bad probability"
    (Invalid_argument "Fault.make: drop probability outside [0, 1]") (fun () ->
      ignore (Fault.make [ Fault.Flaky { link = None; prob = 1.5 } ]))

(* ------------------------------------------------------------------ *)
(* Seeded determinism                                                  *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let draw seed = List.init 16 (fun _ -> Fault.Rng.int (Fault.Rng.make seed) 1000) in
  let a = Fault.Rng.make 42 in
  let xs = List.init 16 (fun _ -> Fault.Rng.int a 1000) in
  let b = Fault.Rng.make 42 in
  let ys = List.init 16 (fun _ -> Fault.Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  Alcotest.(check bool) "different seeds differ" true (draw 1 <> draw 2)

let test_drops_order_independent () =
  (* the drop decision is a pure hash: asking in any order, any number
     of times, gives the same answers *)
  let f = Fault.make ~seed:9 [ Fault.Flaky { link = None; prob = 0.5 } ] in
  let ask p h a = Fault.drops f ~packet:p ~hop:h ~attempt:a ~link:(0, 1) in
  let forward = List.init 64 (fun i -> ask i (i mod 4) (i mod 3)) in
  let backward =
    List.rev (List.rev_map (fun i -> ask i (i mod 4) (i mod 3)) (List.init 64 Fun.id))
  in
  Alcotest.(check (list bool)) "order-independent" forward backward;
  Alcotest.(check bool) "some drop, some survive" true
    (List.mem true forward && List.mem false forward)

(* ------------------------------------------------------------------ *)
(* Rerouting                                                           *)
(* ------------------------------------------------------------------ *)

let test_route_detour () =
  let topo = Topology.mesh2d ~p:3 ~q:3 in
  let src = 0 and dst = Topology.rank_of topo [| 2; 0 |] in
  let plain = Topology.route topo ~src ~dst in
  let broken = List.hd plain in
  let f =
    Fault.make
      [ Fault.Link_down { a = fst broken; b = snd broken; from_cycle = 0; until_cycle = max_int } ]
  in
  match Fault.route f topo ~src ~dst with
  | None -> Alcotest.fail "detour exists"
  | Some hops ->
    Alcotest.(check bool) "avoids the severed link" true
      (not (List.exists (fun (a, b) -> (a, b) = broken || (b, a) = broken) hops));
    (* the detour is a connected path from src to dst *)
    let rec connected cur = function
      | [] -> cur = dst
      | (a, b) :: rest -> a = cur && connected b rest
    in
    Alcotest.(check bool) "connected src->dst" true (connected src hops)

let test_route_partitioned () =
  (* a two-node machine with its only link severed: both directions
     unreachable, and the query returns (no hang, no exception) *)
  let topo = Topology.make [| 2 |] in
  let f = Fault.make [ Fault.Link_down { a = 0; b = 1; from_cycle = 0; until_cycle = max_int } ] in
  Alcotest.(check bool) "0->1 unreachable" true (Fault.route f topo ~src:0 ~dst:1 = None);
  Alcotest.(check bool) "1->0 unreachable" true (Fault.route f topo ~src:1 ~dst:0 = None);
  let net = { Netsim.alpha = 10.0; beta = 0.1; hop = 0.4 } in
  let stats = Reference.price ~faults:f topo net [ Message.make ~src:0 ~dst:1 ~bytes:8 ] in
  Alcotest.(check int) "netsim counts it" 1 stats.Netsim.unreachable;
  let r =
    Eventsim.run ~faults:f topo Eventsim.default_params
      (Reference.raw topo [ Message.make ~src:0 ~dst:1 ~bytes:8 ])
  in
  Alcotest.(check int) "eventsim counts it" 1 r.Eventsim.unreachable;
  Alcotest.(check int) "nothing delivered" 0 r.Eventsim.delivered

let test_dead_source () =
  let topo = Topology.make [| 4 |] in
  let f = Fault.make [ Fault.Dead_node 0 ] in
  let msgs = [ Message.make ~src:0 ~dst:3 ~bytes:8; Message.make ~src:1 ~dst:2 ~bytes:8 ] in
  let r = Eventsim.run ~faults:f topo Eventsim.default_params (Reference.raw topo msgs) in
  Alcotest.(check int) "dead source unreachable" 1 r.Eventsim.unreachable;
  Alcotest.(check int) "live message delivered" 1 r.Eventsim.delivered

(* ------------------------------------------------------------------ *)
(* Protocol edges                                                      *)
(* ------------------------------------------------------------------ *)

let line_msgs = [ Message.make ~src:0 ~dst:3 ~bytes:32; Message.make ~src:1 ~dst:3 ~bytes:32 ]

let test_drop_prob_zero () =
  (* prob 0.0 is indistinguishable from no faults at all *)
  let topo = Topology.make [| 4 |] in
  let clean = Eventsim.run topo Eventsim.default_params (Reference.raw topo line_msgs) in
  let f = Fault.make ~seed:5 [ Fault.Flaky { link = None; prob = 0.0 } ] in
  let faulty =
    Eventsim.run ~faults:f topo Eventsim.default_params
      (Reference.raw topo line_msgs)
  in
  Alcotest.(check bool) "identical results" true (clean = faulty);
  let net = { Netsim.alpha = 10.0; beta = 0.1; hop = 0.4 } in
  let s_clean = Reference.price topo net line_msgs in
  let s_faulty = Reference.price ~faults:f topo net line_msgs in
  Alcotest.(check bool) "netsim identical too" true (s_clean = s_faulty)

let test_drop_prob_one () =
  (* prob 1.0 drops every attempt: nothing non-local arrives, but the
     run terminates and accounts for every message *)
  let topo = Topology.make [| 4 |] in
  let f = Fault.make ~seed:5 [ Fault.Flaky { link = None; prob = 1.0 } ] in
  let r =
    Eventsim.run ~faults:f topo Eventsim.default_params
      (Reference.raw topo line_msgs)
  in
  Alcotest.(check int) "all dropped" (List.length line_msgs) r.Eventsim.dropped;
  Alcotest.(check int) "none delivered" 0 r.Eventsim.delivered;
  Alcotest.(check int) "every packet retried to the cap"
    (List.length line_msgs * Fault.max_retries)
    r.Eventsim.retransmits;
  Alcotest.(check int) "invariant" (List.length line_msgs)
    (r.Eventsim.delivered + r.Eventsim.dropped + r.Eventsim.unreachable)

let test_backoff_cap () =
  Alcotest.(check int) "attempt 1" 128 (Fault.backoff ~attempt:1);
  Alcotest.(check int) "attempt 2" 256 (Fault.backoff ~attempt:2);
  Alcotest.(check int) "attempt 3" 512 (Fault.backoff ~attempt:3);
  Alcotest.(check int) "attempt 6 reaches the cap" 4096 (Fault.backoff ~attempt:6);
  Alcotest.(check int) "attempt 7 capped" 4096 (Fault.backoff ~attempt:7);
  Alcotest.(check int) "attempt 20 capped" 4096 (Fault.backoff ~attempt:20)

let test_degraded_loads () =
  (* a global 50% flaky probability doubles expected transmissions,
     which doubles every link load in the closed-form model *)
  let topo = Topology.make [| 3 |] in
  let msgs = Message.of_list [ Message.make ~src:0 ~dst:2 ~bytes:10 ] in
  let f = Fault.make [ Fault.Flaky { link = None; prob = 0.5 } ] in
  let clean = Netsim.link_loads ~faults:Fault.none topo msgs in
  let degraded = Netsim.link_loads ~faults:f topo msgs in
  List.iter2
    (fun (l, x) (l', y) ->
      Alcotest.(check bool) "same links" true (l = l');
      Alcotest.(check int) "double load" (2 * x) y)
    clean degraded

(* ------------------------------------------------------------------ *)
(* Wormhole bookkeeping (the queue-depth / wait-cycles split)          *)
(* ------------------------------------------------------------------ *)

let test_wormhole_queue_split () =
  let topo = Topology.make [| 3 |] in
  let wh = { Eventsim.default_params with Eventsim.mode = Eventsim.Wormhole } in
  (* both messages need link 1->2 at the same time: one waits *)
  let msgs = [ Message.make ~src:0 ~dst:2 ~bytes:64; Message.make ~src:1 ~dst:2 ~bytes:64 ] in
  let r = Eventsim.run topo wh (Reference.raw topo msgs) in
  Alcotest.(check bool) "contended link has queue depth" true (r.Eventsim.max_link_queue >= 1);
  Alcotest.(check bool) "loser waited cycles" true (r.Eventsim.max_inject_wait > 0);
  let sf = Eventsim.run topo Eventsim.default_params (Reference.raw topo msgs) in
  Alcotest.(check int) "store-forward never inject-waits" 0 sf.Eventsim.max_inject_wait;
  Alcotest.(check bool) "store-forward queue depth" true (sf.Eventsim.max_link_queue >= 1)

(* ------------------------------------------------------------------ *)
(* Whole-simulation invariants under random schedules                  *)
(* ------------------------------------------------------------------ *)

let trial topo msgs seed =
  let rng = Fault.Rng.make seed in
  let specs = Fault.random_specs rng topo in
  let faults = Fault.make ~seed specs in
  Eventsim.run ~faults topo Eventsim.default_params (Reference.raw topo msgs)

let chaos_setup () =
  let topo = Topology.mesh2d ~p:4 ~q:4 in
  let place v = Topology.rank_of topo [| v.(0) mod 4; v.(1) mod 4 |] in
  let flow = Linalg.Mat.of_lists [ [ 1; 2 ]; [ 3; 7 ] ] in
  let msgs = Reference.affine_messages ~vgrid:[| 8; 8 |] ~flow ~bytes:8 ~place () in
  (topo, msgs)

let chaos_props =
  let topo, msgs = chaos_setup () in
  let total = List.length msgs in
  [
    prop ~count:40 "delivery invariant under random faults" QCheck.(int_bound 10_000)
      (fun seed ->
        let r = trial topo msgs seed in
        r.Eventsim.delivered + r.Eventsim.dropped + r.Eventsim.unreachable = total);
    prop ~count:20 "same seed, same run" QCheck.(int_bound 10_000) (fun seed ->
        trial topo msgs seed = trial topo msgs seed);
  ]

let test_jobs_deterministic () =
  (* the fault schedule must not care how trials are scheduled: a Par
     fan-out reproduces the sequential results exactly *)
  let topo, msgs = chaos_setup () in
  let seeds = List.init 8 (fun i -> 100 + i) in
  let sequential = List.map (trial topo msgs) seeds in
  let fanned =
    Reference.with_pool ~jobs:4 (fun pool -> Par.map pool (trial topo msgs) seeds)
  in
  Alcotest.(check bool) "jobs 4 = jobs 1" true (sequential = fanned)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fault"
    [
      ( "grammar",
        [
          Alcotest.test_case "round-trip" `Quick test_parse_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_parse_errors;
          Alcotest.test_case "make validates" `Quick test_make_validates;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "rng streams" `Quick test_rng_deterministic;
          Alcotest.test_case "drops are pure" `Quick test_drops_order_independent;
          Alcotest.test_case "par fan-out" `Quick test_jobs_deterministic;
        ] );
      ( "routing",
        [
          Alcotest.test_case "detour" `Quick test_route_detour;
          Alcotest.test_case "partitioned" `Quick test_route_partitioned;
          Alcotest.test_case "dead source" `Quick test_dead_source;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "drop prob 0" `Quick test_drop_prob_zero;
          Alcotest.test_case "drop prob 1" `Quick test_drop_prob_one;
          Alcotest.test_case "backoff cap" `Quick test_backoff_cap;
          Alcotest.test_case "degraded loads" `Quick test_degraded_loads;
          Alcotest.test_case "wormhole queue split" `Quick test_wormhole_queue_split;
        ] );
      ("chaos", chaos_props);
    ]
