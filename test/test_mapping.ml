(* Tests for the process-mapping subsystem: the Volgraph accumulator,
   the sparse-QAP search invariants (validity, cost ordering,
   seed determinism, pool indifference), a hand-computed 2x2-grid
   golden, the greedy growing against its cubic reference, and the
   zero-cost guarantee of the [?mapping] hooks. *)

(* ------------------------------------------------------------------ *)
(* Volgraph                                                            *)
(* ------------------------------------------------------------------ *)

let msg src dst bytes = Machine.Message.make ~src ~dst ~bytes

let test_volgraph_of_messages () =
  let vol =
    Machine.Volgraph.of_traffic ~hosts:3
      (Machine.Message.of_list [ msg 0 1 10; msg 0 1 5; msg 2 2 7; msg 1 0 3 ])
  in
  (* duplicate (src, dst) pairs are summed; the two directions stay
     distinct; local traffic is kept *)
  Alcotest.(check (list (pair (pair int int) int)))
    "summed per directed pair"
    [ ((0, 1), 15); ((1, 0), 3); ((2, 2), 7) ]
    vol

let test_volgraph_coalesce_agrees () =
  (* a coalesced Netsim volume is the same accumulation: one message
     per pair, bytes summed, both where it prices and where it
     replays *)
  let topo = Machine.Topology.make [| 4 |] in
  let msgs = Machine.Message.of_list [ msg 0 1 10; msg 3 2 4; msg 0 1 1 ] in
  let v = Machine.Netsim.volume topo msgs in
  let pairs traffic =
    let acc = ref [] in
    traffic (fun src dst bytes -> acc := ((src, dst), bytes) :: !acc);
    List.sort compare !acc
  in
  Alcotest.(check (list (pair (pair int int) int)))
    "coalesce = volgraph" [ ((0, 1), 11); ((3, 2), 4) ]
    (pairs (Machine.Netsim.priced v));
  Alcotest.(check (list (pair (pair int int) int)))
    "replay = volgraph"
    (Machine.Volgraph.of_traffic ~hosts:4 msgs)
    (pairs (Machine.Netsim.replay v))

(* ------------------------------------------------------------------ *)
(* 2x2-grid golden: the optimum is known by hand                       *)
(* ------------------------------------------------------------------ *)

(* On a 2x2 mesh (0=(0,0), 1=(0,1), 2=(1,0), 3=(1,1)) the diagonals
   0-3 and 1-2 are the only pairs at distance 2.  With volume 100 on
   (0,3) and 1 on (1,2), the identity embedding pays 2*100 + 2*1 =
   202 hop-bytes; any placement making both pairs adjacent pays
   1*100 + 1*1 = 101, the optimum.  The search must find it. *)
let test_grid_golden () =
  let topo = Machine.Topology.make ~torus:false [| 2; 2 |] in
  let vol = [ ((0, 3), 100); ((1, 2), 1) ] in
  let id = Mapping.identity 4 in
  Alcotest.(check int) "identity pays the diagonals" 202
    (Mapping.hop_bytes topo vol id);
  let s = Mapping.search ~seed:0 topo vol in
  Alcotest.(check bool) "search returns a permutation" true (Reference.is_permutation s);
  Alcotest.(check int) "search finds the optimum" 101
    (Mapping.hop_bytes topo vol s);
  Alcotest.(check int) "0 and 3 end up adjacent" 1
    (Machine.Topology.distance topo ~src:s.(0) ~dst:s.(3));
  Alcotest.(check int) "1 and 2 end up adjacent" 1
    (Machine.Topology.distance topo ~src:s.(1) ~dst:s.(2));
  (* greedy alone already beats identity here *)
  Alcotest.(check bool) "greedy <= identity" true
    (Mapping.hop_bytes topo vol (Mapping.(compute (spec Greedy)) topo vol) <= 202)

(* ------------------------------------------------------------------ *)
(* qcheck invariants                                                   *)
(* ------------------------------------------------------------------ *)

(* A random mapping instance: a small mesh or torus plus raw traffic
   whose endpoints are folded into range. *)
let case_gen =
  QCheck.Gen.(
    map3
      (fun torus dims raw -> (torus, dims, raw))
      bool
      (oneofl [ [| 2; 2 |]; [| 4; 2 |]; [| 3; 3 |]; [| 4; 4 |] ])
      (list_size (int_range 0 30)
         (pair (pair (int_range 0 15) (int_range 0 15)) (int_range 0 512))))

let case_print (torus, dims, raw) =
  Printf.sprintf "torus=%b dims=%dx%d msgs=%d" torus dims.(0) dims.(1)
    (List.length raw)

let case_arb = QCheck.make ~print:case_print case_gen

let instance (torus, dims, raw) =
  let topo = Machine.Topology.make ~torus dims in
  let n = Machine.Topology.size topo in
  let vol =
    Machine.Volgraph.of_traffic ~hosts:n
      (Machine.Message.of_list
         (List.map (fun ((s, d), b) -> msg (s mod n) (d mod n) b) raw))
  in
  (topo, vol)

let prop_search_valid =
  QCheck.Test.make ~count:60 ~name:"search result is a valid permutation"
    case_arb (fun case ->
      let topo, vol = instance case in
      Reference.is_permutation (Mapping.search ~seed:3 topo vol))

let prop_cost_ordering =
  QCheck.Test.make ~count:60 ~name:"search <= greedy <= identity hop-bytes"
    case_arb (fun case ->
      let topo, vol = instance case in
      let cost p = Mapping.hop_bytes topo vol p in
      let id = cost (Mapping.identity (Machine.Topology.size topo)) in
      let gr = cost (Mapping.(compute (spec Greedy)) topo vol) in
      let se = cost (Mapping.search ~seed:1 topo vol) in
      se <= gr && gr <= id)

let prop_seed_deterministic =
  QCheck.Test.make ~count:30
    ~name:"same seed is byte-identical, sequential runs" case_arb
    (fun case ->
      let topo, vol = instance case in
      let s1 = Mapping.search ~seed:11 topo vol in
      let s2 = Mapping.search ~seed:11 topo vol in
      s1 = s2)

(* A placement composed after the fold ([Patterns.traffic ?remap])
   emits the unplaced sequence with both endpoints remapped. *)
let prop_apply_preserves_traffic =
  QCheck.Test.make ~count:60 ~name:"apply permutes endpoints, keeps bytes"
    case_arb (fun case ->
      let topo, vol = instance case in
      let n = Machine.Topology.size topo in
      let perm = Mapping.search ~seed:5 topo vol in
      let vgrid = Array.map (( * ) 2) (Machine.Topology.dims topo) in
      let axes = Distrib.Layout.axes (Distrib.Layout.all_cyclic 2) ~vgrid ~topo in
      let flows =
        List.map Linalg.Mat.of_lists [ [ [ 1; 1 ]; [ 0; 1 ] ]; [ [ 1; 0 ]; [ 1; 1 ] ] ]
      in
      let traffic ?remap () =
        Reference.messages (Machine.Patterns.traffic ~vgrid ~axes ?remap ~bytes:8 flows)
      in
      let msgs = traffic () and mapped = traffic ~remap:perm () in
      List.length mapped = List.length msgs
      && List.for_all2
           (fun (a : Machine.Message.t) (b : Machine.Message.t) ->
             b.Machine.Message.src = perm.(a.Machine.Message.src)
             && b.Machine.Message.dst = perm.(a.Machine.Message.dst)
             && b.Machine.Message.bytes = a.Machine.Message.bytes
             && a.Machine.Message.src < n
             && a.Machine.Message.dst < n)
           msgs mapped)

(* ------------------------------------------------------------------ *)
(* Zero-cost and no-harm guarantees of the ?mapping hooks              *)
(* ------------------------------------------------------------------ *)

let example1_plan () =
  let w = Resopt.Workloads.find "example1" in
  (Resopt.Pipeline.run ~m:2 ~schedule:w.Resopt.Workloads.schedule
     w.Resopt.Workloads.nest)
    .Resopt.Pipeline.plan

let test_identity_mapping_is_free () =
  let plan = example1_plan () in
  let cm5 = Machine.Models.cm5 () in
  let plain = (Resopt.Cost.of_plan cm5 plan).Resopt.Cost.total in
  let under_id =
    (Resopt.Cost.of_plan ~mapping:(Mapping.spec Mapping.Identity) cm5 plan)
      .Resopt.Cost.total
  in
  Alcotest.(check (float 1e-9)) "identity mapping prices identically" plain
    under_id;
  (* t3d has no 2-D simulation grid: any mapping is a no-op there *)
  Alcotest.(check bool) "t3d has no simulation grid" true
    (Resopt.Residual.on_model ~bytes:64 (Machine.Models.t3d ()) [] = None);
  let t3d = Machine.Models.t3d () in
  let p = (Resopt.Cost.of_plan t3d plan).Resopt.Cost.total in
  let m =
    (Resopt.Cost.of_plan
       ~mapping:(Mapping.spec Mapping.Search)
       t3d plan)
      .Resopt.Cost.total
  in
  Alcotest.(check (float 1e-9)) "mapping is a no-op on t3d" p m

let test_search_mapping_never_hurts () =
  let plan = example1_plan () in
  let cm5 = Machine.Models.cm5 () in
  let plain = (Resopt.Cost.of_plan cm5 plan).Resopt.Cost.total in
  let searched =
    (Resopt.Cost.of_plan
       ~mapping:(Mapping.spec Mapping.Search)
       cm5 plan)
      .Resopt.Cost.total
  in
  Alcotest.(check bool)
    (Printf.sprintf "searched %.1f <= plain %.1f" searched plain)
    true
    (searched <= plain)

let contains re s =
  try
    ignore (Str.search_forward (Str.regexp_string re) s 0);
    true
  with Not_found -> false

let test_sweep_gain_map_column () =
  let workloads = [ Resopt.Workloads.find "example1" ] in
  let models = [ Machine.Models.cm5 () ] in
  let plain_rows = Resopt.Sweep.run ~models ~workloads () in
  let plain_csv = Resopt.Sweep.to_csv plain_rows in
  Alcotest.(check bool) "no gain_map column without mapping" false
    (contains "gain_map" plain_csv);
  Alcotest.(check bool) "rows carry no map_gain" true
    (List.for_all (fun r -> r.Resopt.Sweep.map_gain = None) plain_rows);
  let rows =
    Resopt.Sweep.run ~models ~workloads
      ~mapping:(Mapping.spec Mapping.Search)
      ()
  in
  let csv = Resopt.Sweep.to_csv rows in
  Alcotest.(check bool) "gain_map column with mapping" true
    (contains ",gain_map" csv);
  List.iter
    (fun r ->
      match r.Resopt.Sweep.map_gain with
      | None -> Alcotest.fail "mapped sweep row without map_gain"
      | Some g ->
        Alcotest.(check bool)
          (Printf.sprintf "%s gain_map %.3f >= 1" r.Resopt.Sweep.model g)
          true (g >= 1.0))
    rows;
  (* the deterministic columns are unchanged by the mapping pricing *)
  let strip_last_col csv =
    String.concat "\n"
      (List.map
         (fun line ->
           match String.rindex_opt line ',' with
           | Some i -> String.sub line 0 i
           | None -> line)
         (String.split_on_char '\n' csv))
  in
  Alcotest.(check string) "mapping only appends a column" plain_csv
    (strip_last_col csv)

(* ------------------------------------------------------------------ *)
(* Greedy growing against the cubic reference                          *)
(* ------------------------------------------------------------------ *)

(* The [Greedy] placement keeps running connectivities and scores
   nodes over placed partners only; [Reference.greedy] recomputes both per step.
   The permutations must be identical: empty and one-edge graphs,
   local entries, repeated pairs, and weights drawn from a small set
   so that connectivities and node scores tie. *)
let greedy_diff spec =
  let topo = Result.get_ok (Machine.Topology.of_string spec) in
  let n = Machine.Topology.size topo in
  let edge =
    QCheck.Gen.(
      pair (pair (int_bound (n - 1)) (int_bound (n - 1))) (oneofl [ 1; 2; 8; 8; 64 ]))
  in
  let graph =
    QCheck.Gen.(
      frequency
        [
          (1, return []);
          (2, map (fun e -> [ e ]) edge);
          (6, list_size (int_range 2 (3 * n)) edge);
        ])
  in
  let arb =
    QCheck.make
      ~print:(fun vol ->
        spec ^ " "
        ^ String.concat " "
            (List.map (fun ((p, q), b) -> Printf.sprintf "%d-%d:%d" p q b) vol))
      graph
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name:("matches reference " ^ spec) arb (fun vol ->
         Mapping.(compute (spec Greedy)) topo vol = Reference.greedy topo vol))

let greedy_diff_props =
  List.map greedy_diff
    [ "mesh:4x3"; "torus:4x4"; "torus:8x4"; "fattree:3:3"; "dragonfly:4:4:2" ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mapping"
    [
      ( "volgraph",
        [
          Alcotest.test_case "of_messages sums pairs" `Quick
            test_volgraph_of_messages;
          Alcotest.test_case "netsim coalesce agrees" `Quick
            test_volgraph_coalesce_agrees;
        ] );
      ("golden", [ Alcotest.test_case "2x2 grid optimum" `Quick test_grid_golden ]);
      ("greedy", greedy_diff_props);
      ( "invariants",
        [
          QCheck_alcotest.to_alcotest prop_search_valid;
          QCheck_alcotest.to_alcotest prop_cost_ordering;
          QCheck_alcotest.to_alcotest prop_seed_deterministic;
          QCheck_alcotest.to_alcotest prop_apply_preserves_traffic;
        ] );
      ( "zero-cost",
        [
          Alcotest.test_case "identity mapping is free" `Quick
            test_identity_mapping_is_free;
          Alcotest.test_case "search never hurts example1" `Quick
            test_search_mapping_never_hurts;
          Alcotest.test_case "sweep gain_map column" `Quick
            test_sweep_gain_map_column;
        ] );
    ]
