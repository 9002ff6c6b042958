(* Communication lower bounds (lib/bounds + Resopt.Efficiency).

   Hand-computed goldens pin the cycle-packing arithmetic on two
   flows small enough to decompose on paper; the workload x topology
   x mapping matrix then property-checks the two contracts every
   observability surface relies on — [bound_bytes <= achieved_bytes]
   and transfer-time efficiency in (0, 1] — across every curated or
   seeded-Gennest workload that leaves residual traffic, every
   topology-matrix instance and both the fixed and the searched
   placement.  A qcheck generator does the same for
   random unimodular flows.  Sweep integration: the eff column only
   exists when asked for, and the CSV without --bounds is
   byte-identical.  Benchstore: efficiency regressions gate, bound
   tightenings don't. *)

open Linalg
module Topology = Machine.Topology

let topo_matrix =
  [
    ("mesh4x8", Topology.mesh2d ~p:4 ~q:8);
    ("torus8x8", Topology.make ~torus:true [| 8; 8 |]);
    ("torus4x4x2", Topology.torus3d ~p:4 ~q:4 ~r:2);
    ("fattree2x4", Topology.fat_tree ~levels:2 ~arity:4);
    ("fattree3x2", Topology.fat_tree ~levels:3 ~arity:2);
    ("dragonfly-minimal", Topology.dragonfly ~groups:4 ~routers:4 ~hosts:2 ());
    ( "dragonfly-adaptive",
      Topology.dragonfly ~routing:(Topology.Valiant 7) ~groups:4 ~routers:4
        ~hosts:2 () );
  ]

(* ------------------------------------------------------------------ *)
(* Mat.rank                                                            *)
(* ------------------------------------------------------------------ *)

let test_rank () =
  Alcotest.(check int) "identity 3" 3 (Mat.rank (Mat.identity 3));
  Alcotest.(check int) "zero 2x3" 0 (Mat.rank (Mat.zero 2 3));
  Alcotest.(check int) "paper T" 2 (Mat.rank (Mat.of_lists [ [ 1; 2 ]; [ 3; 7 ] ]));
  Alcotest.(check int) "rank-1 multiple rows" 1
    (Mat.rank (Mat.of_lists [ [ 2; 4 ]; [ 1; 2 ] ]));
  Alcotest.(check int) "row vector" 1 (Mat.rank (Mat.of_lists [ [ 0; 0; 5 ] ]));
  (* the flow classifier: T - I full, shear - I rank 1, I - I zero *)
  let classify f = Mat.rank (Mat.sub f (Mat.identity 2)) in
  Alcotest.(check int) "T mixes fully" 2
    (classify (Mat.of_lists [ [ 1; 2 ]; [ 3; 7 ] ]));
  Alcotest.(check int) "shear U_3 is rank 1" 1
    (classify (Mat.of_lists [ [ 1; 3 ]; [ 0; 1 ] ]));
  Alcotest.(check int) "transpose swap is rank 1" 1
    (classify (Mat.of_lists [ [ 0; 1 ]; [ 1; 0 ] ]));
  Alcotest.(check int) "identity is local" 0 (classify (Mat.identity 2))

(* ------------------------------------------------------------------ *)
(* Volume bound goldens                                                *)
(* ------------------------------------------------------------------ *)

(* The cell→rank table of a placement function, cells in row-major
   order. *)
let owner_of vgrid place =
  let ranks = ref [] in
  Machine.Patterns.iter_box vgrid (fun v -> ranks := place v :: !ranks);
  Array.of_list (List.rev !ranks)

(* 1-D circular shift: the shear (a, b) -> (a + b, b) on a 6x2 grid
   fixes row 0 and shifts row 1 by one cell, a -> a + 1.  6 processors
   hold 2 cells each in blocks along the rows.  The 6 fixed points cost
   nothing; the shifted row is one orbit of length 6, and cap 2 forces
   >= 3 processors on it, so >= 3 boundary crossings — and block
   placement achieves exactly 3 (at a = 1->2, 3->4, 5->0).  The bound
   is tight. *)
let test_volume_shift () =
  let v =
    Bounds.volume ~vgrid:[| 6; 2 |] ~bytes:10
      ~owner:(owner_of [| 6; 2 |] (fun c -> (c.(0) / 2) + (3 * c.(1))))
      [ Mat.of_lists [ [ 1; 1 ]; [ 0; 1 ] ] ]
  in
  Alcotest.(check int) "cells" 12 v.Bounds.cells;
  Alcotest.(check int) "nprocs" 6 v.Bounds.nprocs;
  Alcotest.(check int) "cap" 2 v.Bounds.cap;
  Alcotest.(check int) "6 fixed points + one orbit" 7 v.Bounds.orbits;
  Alcotest.(check int) "of length 6" 6 v.Bounds.longest_orbit;
  Alcotest.(check int) "flow_rank (shear)" 1 v.Bounds.flow_rank;
  Alcotest.(check int) "bound = ceil(6/2) msgs x 10 B" 30 v.Bounds.bound_bytes;
  Alcotest.(check int) "achieved = 3 crossings x 10 B" 30 v.Bounds.achieved_bytes;
  Alcotest.(check int) "per-proc bound = ceil(30 / 6)" 5 v.Bounds.per_proc_bound

(* 4x4 transpose under 2x2 blocks: the permutation is an involution —
   4 fixed points and 6 swaps, every orbit within cap 4, so the
   cycle-packing bound is 0 while 8 off-diagonal-block cells really do
   cross (the gap a tiling transformation would close). *)
let test_volume_transpose () =
  let v =
    Bounds.volume ~vgrid:[| 4; 4 |] ~bytes:5
      ~owner:(owner_of [| 4; 4 |] (fun c -> (2 * (c.(0) / 2)) + (c.(1) / 2)))
      [ Mat.of_lists [ [ 0; 1 ]; [ 1; 0 ] ] ]
  in
  Alcotest.(check int) "cells" 16 v.Bounds.cells;
  Alcotest.(check int) "nprocs" 4 v.Bounds.nprocs;
  Alcotest.(check int) "cap" 4 v.Bounds.cap;
  Alcotest.(check int) "4 fixed + 6 swaps" 10 v.Bounds.orbits;
  Alcotest.(check int) "longest orbit" 2 v.Bounds.longest_orbit;
  Alcotest.(check int) "flow_rank" 1 v.Bounds.flow_rank;
  Alcotest.(check int) "no orbit exceeds cap: bound 0" 0 v.Bounds.bound_bytes;
  Alcotest.(check int) "achieved = 8 cells x 5 B" 40 v.Bounds.achieved_bytes

let test_volume_shape_mismatch () =
  Alcotest.check_raises "1x1 flow on a 2-D grid"
    (Invalid_argument "Bounds.volume: flow shape does not match vgrid")
    (fun () ->
      ignore
        (Bounds.volume ~vgrid:[| 4; 4 |] ~bytes:1
           ~owner:(Array.make 16 0)
           [ Mat.identity 1 ]))

(* ------------------------------------------------------------------ *)
(* Transfer-time bound                                                 *)
(* ------------------------------------------------------------------ *)

let test_transfer_empty () =
  let topo = Topology.make ~torus:true [| 4; 4 |] in
  let params = (Machine.Models.paragon ()).Machine.Models.net in
  let price msgs =
    Bounds.transfer_time topo params
      (Machine.Netsim.volume topo (Machine.Message.of_list msgs))
  in
  let t = price [] in
  Alcotest.(check (float 0.0)) "no traffic: zero bound" 0.0 t.Bounds.bound_time;
  Alcotest.(check (float 0.0)) "no traffic: efficiency 1" 1.0 t.Bounds.efficiency;
  (* local-only traffic is the same as none *)
  let local = [ { Machine.Message.src = 3; dst = 3; bytes = 64 } ] in
  let t = price local in
  Alcotest.(check (float 0.0)) "local-only: efficiency 1" 1.0 t.Bounds.efficiency

let check_time_components name topo (t : Bounds.time) =
  let a = t.Bounds.achieved in
  let serial = max a.Machine.Netsim.max_sender a.Machine.Netsim.max_receiver in
  Alcotest.(check bool)
    (name ^ ": serial_lb <= serial") true
    (t.Bounds.serial_lb <= serial);
  Alcotest.(check bool)
    (name ^ ": link_lb <= max_link_load") true
    (t.Bounds.link_lb <= a.Machine.Netsim.max_link_load);
  Alcotest.(check bool)
    (name ^ ": hops_lb <= max_hops") true
    (t.Bounds.hops_lb <= a.Machine.Netsim.max_hops);
  Alcotest.(check bool)
    (name ^ ": bound_time <= achieved") true
    (t.Bounds.bound_time <= a.Machine.Netsim.time +. 1e-9);
  Alcotest.(check bool)
    (name ^ ": efficiency in (0,1]") true
    (t.Bounds.efficiency > 0.0 && t.Bounds.efficiency <= 1.0);
  ignore topo

(* ------------------------------------------------------------------ *)
(* The workload x topology x mapping matrix                            *)
(* ------------------------------------------------------------------ *)

(* the residual traffic of [flows] on the model's simulation grid,
   bounded *)
let efficiency ?mapping (model : Machine.Models.t) flows =
  Option.map
    (Resopt.Efficiency.of_traffic ?mapping model.Machine.Models.net)
    (Resopt.Residual.on_model ~bytes:64 model flows)

let check_efficiency name (e : Resopt.Efficiency.t) =
  let v = e.Resopt.Efficiency.volume in
  Alcotest.(check bool)
    (name ^ ": bound <= achieved bytes") true
    (v.Bounds.bound_bytes <= v.Bounds.achieved_bytes);
  Alcotest.(check bool)
    (name ^ ": bound_bytes >= 0") true
    (v.Bounds.bound_bytes >= 0);
  check_time_components name () e.Resopt.Efficiency.time

(* every entry of the curated workloads and the seeded Gennest corpus
   that leaves residual traffic at m = 2, with its flows *)
let traffic_corpus =
  lazy
    (List.filter_map
       (fun (w : Resopt.Workloads.t) ->
         match Resopt.Residual.flows_of_workload ~m:2 w with
         | [] -> None
         | flows -> Some (w.Resopt.Workloads.name, flows))
       (Resopt.Workloads.all ()
       @ Resopt.Workloads.generated ~seed:100003 ~count:200))

let test_matrix_invariant () =
  Alcotest.(check int) "corpus entries with traffic" 34
    (List.length (Lazy.force traffic_corpus));
  List.iter
    (fun (wname, flows) ->
      List.iter
        (fun (tname, topo) ->
          let model = Machine.Models.of_topo topo in
          let name = wname ^ "/" ^ tname in
          match efficiency model flows with
          | None ->
            Alcotest.(check bool)
              (name ^ ": None only without a 2-D grid") true
              (Topology.ndims topo <> 2)
          | Some e ->
            Alcotest.(check bool)
              (name ^ ": Some needs a 2-D grid") true
              (Topology.ndims topo = 2);
            check_efficiency name e)
        topo_matrix)
    (Lazy.force traffic_corpus)

(* the searched placement re-prices the achieved side; the invariants
   must survive it (volume bound is placement-independent, and any
   placement will do, so one restart keeps the corpus pass short) *)
let test_matrix_mapped () =
  let spec = Mapping.spec Mapping.Search in
  List.iter
    (fun (wname, flows) ->
      List.iter
        (fun (tname, topo) ->
          let model = Machine.Models.of_topo topo in
          match efficiency ~mapping:spec model flows with
          | None -> ()
          | Some e -> check_efficiency (wname ^ "/" ^ tname ^ "/mapped") e)
        topo_matrix)
    (Lazy.force traffic_corpus)

(* residual traffic comes from the plan alone: matmul's plan leaves
   none, transpose's leaves its flow *)
let test_plan_traffic () =
  Alcotest.(check int) "matmul has no residual flows" 0
    (List.length
       (Resopt.Residual.flows_of_workload ~m:2 (Resopt.Workloads.find "matmul")));
  Alcotest.(check bool) "transpose has residual flows" true
    (Resopt.Residual.flows_of_workload ~m:2 (Resopt.Workloads.find "transpose")
    <> [])

(* pinned end-to-end values: the running example on the reference
   machine.  Deterministic closed-form arithmetic — a change here is a
   real behavior change, not noise. *)
let test_pinned_example1 () =
  match
    Resopt.Efficiency.of_workload ~m:2 (Machine.Models.paragon ())
      (Resopt.Workloads.find "example1")
  with
  | None -> Alcotest.fail "paragon has a simulation grid"
  | Some e ->
    let v = e.Resopt.Efficiency.volume in
    Alcotest.(check int) "achieved bytes" 30720 v.Bounds.achieved_bytes;
    Alcotest.(check int) "flow rank" 2 v.Bounds.flow_rank;
    Alcotest.(check string) "efficiency" "0.516"
      (Printf.sprintf "%.3f" e.Resopt.Efficiency.time.Bounds.efficiency)

let test_empty_flows () =
  match efficiency (Machine.Models.paragon ()) [] with
  | None -> Alcotest.fail "expected Some"
  | Some e ->
    Alcotest.(check int) "no flows, no bytes" 0
      e.Resopt.Efficiency.volume.Bounds.achieved_bytes;
    Alcotest.(check (float 0.0)) "efficiency 1" 1.0
      e.Resopt.Efficiency.time.Bounds.efficiency

(* the paper's running example T *)
let paper_t = Mat.of_lists [ [ 1; 2 ]; [ 3; 7 ] ]

let test_obs_counters () =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  Obs.reset ();
  let before = Obs.counter "bounds.computed" in
  (match
     efficiency (Machine.Models.paragon ()) [ paper_t ]
   with
  | Some _ -> ()
  | None -> Alcotest.fail "expected Some");
  Alcotest.(check int) "bounds.computed incremented" (before + 1)
    (Obs.counter "bounds.computed");
  Alcotest.(check bool) "last_efficiency gauge set" true
    (Obs.gauge "bounds.last_efficiency" <> None)

(* ------------------------------------------------------------------ *)
(* Random unimodular flows (qcheck)                                    *)
(* ------------------------------------------------------------------ *)

let flow_of (k1, k2, k3) =
  let u k = Mat.of_lists [ [ 1; k ]; [ 0; 1 ] ] in
  let l k = Mat.of_lists [ [ 1; 0 ]; [ k; 1 ] ] in
  Mat.mul (u k1) (Mat.mul (l k2) (u k3))

let grid2d_instances =
  List.filter (fun (_, t) -> Topology.ndims t = 2) topo_matrix

let prop_bound_le_achieved =
  QCheck.Test.make ~count:60
    ~name:"volume bound <= achieved bytes for random unimodular flows"
    QCheck.(
      quad (int_range (-3) 3) (int_range (-3) 3) (int_range (-3) 3)
        (int_range 0 (List.length grid2d_instances - 1)))
    (fun (k1, k2, k3, ti) ->
      let _, topo = List.nth grid2d_instances ti in
      let vgrid = [| 2 * Topology.dim topo 0; 2 * Topology.dim topo 1 |] in
      let layout = Distrib.Layout.all_cyclic 2 in
      let owner = Array.make (Machine.Patterns.cells vgrid) 0 in
      Machine.Patterns.fill_ranks
        ~axes:(Distrib.Layout.axes layout ~vgrid ~topo) ~vgrid owner;
      let v =
        Bounds.volume ~vgrid ~bytes:8 ~owner [ flow_of (k1, k2, k3) ]
      in
      v.Bounds.bound_bytes <= v.Bounds.achieved_bytes
      && v.Bounds.bound_bytes >= 0)

let prop_transfer_efficiency =
  QCheck.Test.make ~count:30
    ~name:"transfer-time efficiency in (0,1] for random unimodular flows"
    QCheck.(
      quad (int_range (-3) 3) (int_range (-3) 3) (int_range (-3) 3)
        (int_range 0 (List.length grid2d_instances - 1)))
    (fun (k1, k2, k3, ti) ->
      let _, topo = List.nth grid2d_instances ti in
      let vgrid = [| 2 * Topology.dim topo 0; 2 * Topology.dim topo 1 |] in
      let layout = Distrib.Layout.all_cyclic 2 in
      let place v = Distrib.Layout.place layout ~vgrid ~topo v in
      let msgs =
        Reference.affine_messages ~vgrid ~flow:(flow_of (k1, k2, k3))
          ~bytes:8 ~place ()
      in
      let params = (Machine.Models.of_topo topo).Machine.Models.net in
      let t =
        Bounds.transfer_time topo params
          (Machine.Netsim.volume topo (Machine.Message.of_list msgs))
      in
      t.Bounds.efficiency > 0.0
      && t.Bounds.efficiency <= 1.0
      && t.Bounds.bound_time
         <= t.Bounds.achieved.Machine.Netsim.time +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Sweep integration                                                   *)
(* ------------------------------------------------------------------ *)

let strip (r : Resopt.Sweep.row) =
  { r with Resopt.Sweep.time_ms = 0.0; cost_ms = 0.0; eff = None }

let test_sweep_bounds () =
  let workloads = [ Resopt.Workloads.find "example1" ] in
  let plain = Resopt.Sweep.run ~workloads () in
  let bounded = Resopt.Sweep.run ~workloads ~bounds:true () in
  List.iter
    (fun (r : Resopt.Sweep.row) ->
      match (r.Resopt.Sweep.model, r.Resopt.Sweep.eff) with
      | "t3d", None -> ()
      | "t3d", Some _ -> Alcotest.fail "t3d has no grid, expected no eff"
      | m, None -> Alcotest.fail (m ^ ": expected an efficiency")
      | m, Some e ->
        Alcotest.(check bool) (m ^ " eff in (0,1]") true (e > 0.0 && e <= 1.0))
    bounded;
  (* without bounds no row carries one, and the rows are otherwise
     identical (timing aside) *)
  List.iter
    (fun (r : Resopt.Sweep.row) ->
      Alcotest.(check bool) "plain rows carry no eff" true
        (r.Resopt.Sweep.eff = None))
    plain;
  Alcotest.(check bool) "rows identical modulo eff and timing" true
    (List.map strip plain = List.map strip bounded);
  (* the CSV without the flag is byte-identical: no efficiency column *)
  let csv_plain = Resopt.Sweep.to_csv plain in
  let csv_stripped = Resopt.Sweep.to_csv (List.map strip bounded) in
  Alcotest.(check string) "bounds-free CSV byte-identical" csv_plain
    csv_stripped;
  let contains hay needle =
    let re = Str.regexp_string needle in
    try
      ignore (Str.search_forward re hay 0);
      true
    with Not_found -> false
  in
  Alcotest.(check bool) "no efficiency column without the flag" false
    (contains csv_plain "efficiency");
  Alcotest.(check bool) "efficiency column with the flag" true
    (contains (Resopt.Sweep.to_csv bounded) "efficiency");
  (* metrics gain the per-model aggregate *)
  let metrics = Resopt.Sweep.metrics bounded in
  Alcotest.(check bool) "cm5.efficiency aggregate present" true
    (List.mem_assoc "cm5.efficiency" metrics);
  Alcotest.(check bool) "no aggregate without the flag" false
    (List.mem_assoc "cm5.efficiency" (Resopt.Sweep.metrics plain))

(* ------------------------------------------------------------------ *)
(* Benchstore directions                                               *)
(* ------------------------------------------------------------------ *)

let test_benchstore_directions () =
  let dir = Obs.Benchstore.direction_of_metric in
  Alcotest.(check bool) "efficiency is higher-better" true
    (dir "boundsbench.example1.torus8x8.efficiency"
    = Obs.Benchstore.Higher_better);
  Alcotest.(check bool) "bound_bytes informational" true
    (dir "x.bound_bytes" = Obs.Benchstore.Informational);
  Alcotest.(check bool) "bound_time informational (not a latency)" true
    (dir "x.bound_time" = Obs.Benchstore.Informational);
  Alcotest.(check bool) "achieved_bytes informational" true
    (dir "x.achieved_bytes" = Obs.Benchstore.Informational);
  (* the heuristic still applies elsewhere *)
  Alcotest.(check bool) "costs stay lower-better" true
    (dir "cm5.optimized_cost" = Obs.Benchstore.Lower_better);
  Alcotest.(check bool) "gains stay higher-better" true
    (dir "cm5.gain" = Obs.Benchstore.Higher_better);
  (* an efficiency drop beyond threshold fails the gate *)
  let comps =
    Obs.Benchstore.compare_metrics ~threshold:0.1
      ~baseline:[ ("a.efficiency", 0.9); ("a.bound_bytes", 100.0) ]
      ~current:[ ("a.efficiency", 0.5); ("a.bound_bytes", 500.0) ]
      ()
  in
  let failures = Obs.Benchstore.failures comps in
  Alcotest.(check int) "exactly the efficiency drop fails" 1
    (List.length failures);
  Alcotest.(check bool) "and it is the efficiency metric" true
    (List.exists
       (fun (c : Obs.Benchstore.comparison) ->
         c.Obs.Benchstore.comp_metric = "a.efficiency")
       failures);
  (* an efficiency gain and a tightened bound both pass *)
  let comps =
    Obs.Benchstore.compare_metrics ~threshold:0.1
      ~baseline:[ ("a.efficiency", 0.5); ("a.bound_bytes", 100.0) ]
      ~current:[ ("a.efficiency", 0.9); ("a.bound_bytes", 500.0) ]
      ()
  in
  Alcotest.(check int) "improvements never fail" 0
    (List.length (Obs.Benchstore.failures comps))

let () =
  Alcotest.run "bounds"
    [
      ( "rank",
        [ Alcotest.test_case "Mat.rank" `Quick test_rank ] );
      ( "volume",
        [
          Alcotest.test_case "1-D shift golden" `Quick test_volume_shift;
          Alcotest.test_case "4x4 transpose golden" `Quick
            test_volume_transpose;
          Alcotest.test_case "shape mismatch" `Quick test_volume_shape_mismatch;
        ] );
      ( "transfer",
        [ Alcotest.test_case "empty / local traffic" `Quick test_transfer_empty ] );
      ( "matrix",
        [
          Alcotest.test_case "workloads x topologies" `Slow
            test_matrix_invariant;
          Alcotest.test_case "with searched placement" `Slow test_matrix_mapped;
          Alcotest.test_case "pinned example1/paragon" `Quick
            test_pinned_example1;
          Alcotest.test_case "no flows" `Quick test_empty_flows;
          Alcotest.test_case "plan traffic only" `Quick test_plan_traffic;
          Alcotest.test_case "obs counters" `Quick test_obs_counters;
        ] );
      ( "random",
        [
          QCheck_alcotest.to_alcotest prop_bound_le_achieved;
          QCheck_alcotest.to_alcotest prop_transfer_efficiency;
        ] );
      ( "sweep",
        [ Alcotest.test_case "eff column and CSV" `Slow test_sweep_bounds ] );
      ( "benchstore",
        [
          Alcotest.test_case "metric directions" `Quick
            test_benchstore_directions;
        ] );
    ]
