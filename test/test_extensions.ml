(* Tests for the extension modules: torus topologies and the T3D
   model, the nest DSL, the n-dimensional decomposition, the plan
   pricer, the semantic validator, the code generator and its SPMD
   output, Eventsim's wormhole mode, and the argument checks of every
   layer. *)

open Linalg

let prop ?(count = 150) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let mat = Alcotest.testable Mat.pp_flat Mat.equal

(* ------------------------------------------------------------------ *)
(* Torus topologies                                                    *)
(* ------------------------------------------------------------------ *)

let test_torus_basics () =
  let t = Machine.Topology.make ~torus:true [| 8 |] in
  Alcotest.(check bool) "is torus" true (Machine.Topology.is_torus t);
  Alcotest.(check int) "diameter halves" 4 (Machine.Topology.diameter t);
  (* wrap-around: 0 -> 7 is one hop *)
  Alcotest.(check int) "wrap distance" 1 (Machine.Topology.distance t ~src:0 ~dst:7);
  Alcotest.(check int) "path length" 1
    (List.length (Machine.Topology.route t ~src:0 ~dst:7));
  let mesh = Machine.Topology.make [| 8 |] in
  Alcotest.(check int) "mesh distance" 7 (Machine.Topology.distance mesh ~src:0 ~dst:7)

let test_torus3d () =
  let t = Machine.Topology.torus3d ~p:4 ~q:4 ~r:2 in
  Alcotest.(check int) "size" 32 (Machine.Topology.size t);
  Alcotest.(check int) "diameter" 5 (Machine.Topology.diameter t)

let torus_props =
  let arb =
    QCheck.make
      ~print:(fun (s, d) -> Printf.sprintf "%d->%d" s d)
      QCheck.Gen.(pair (int_range 0 31) (int_range 0 31))
  in
  [
    prop "torus path length = wrapped manhattan" arb (fun (s, d) ->
        let t = Machine.Topology.make ~torus:true [| 8; 4 |] in
        List.length (Machine.Topology.route t ~src:s ~dst:d)
        = Machine.Topology.distance t ~src:s ~dst:d);
    prop "torus never longer than mesh" arb (fun (s, d) ->
        let torus = Machine.Topology.make ~torus:true [| 8; 4 |] in
        let mesh = Machine.Topology.make [| 8; 4 |] in
        Machine.Topology.distance torus ~src:s ~dst:d
        <= Machine.Topology.distance mesh ~src:s ~dst:d);
  ]

let test_t3d_model () =
  let m = Machine.Models.t3d () in
  Alcotest.(check bool) "torus topo" true (Machine.Topology.is_torus m.Machine.Models.topo);
  Alcotest.(check int) "32 nodes" 32 (Machine.Topology.size m.Machine.Models.topo);
  (* same qualitative ordering as the other machines *)
  Alcotest.(check bool) "translation < general" true
    (Machine.Models.translation_time m ~bytes:256
     < Machine.Models.general_time m ~bytes:256)

(* ------------------------------------------------------------------ *)
(* DSL                                                                 *)
(* ------------------------------------------------------------------ *)

let test_dsl_parse () =
  let src =
    {|
# a simple nest
nest demo
array A 2
array B 2
stmt S depth 2 extent 8 8
  write B Fw [0 1; 1 0]
  read A Fr [1 0; 0 1] + (1 -1)
|}
  in
  match Nestir.Dsl.parse src with
  | Error e -> Alcotest.fail e
  | Ok nest ->
    Alcotest.(check string) "name" "demo" nest.Nestir.Loopnest.nest_name;
    Alcotest.(check int) "accesses" 2
      (List.length (Nestir.Loopnest.all_accesses nest));
    let s = Nestir.Loopnest.find_stmt nest "S" in
    let fr =
      List.find
        (fun (a : Nestir.Loopnest.access) -> a.Nestir.Loopnest.label = "Fr")
        s.Nestir.Loopnest.accesses
    in
    Alcotest.(check (array int)) "offset" [| 1; -1 |]
      fr.Nestir.Loopnest.map.Nestir.Affine.c

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_dsl_errors () =
  let check_err src frag =
    match Nestir.Dsl.parse src with
    | Ok _ -> Alcotest.failf "expected failure (%s)" frag
    | Error e ->
      if not (contains e frag) then
        Alcotest.failf "error %S does not mention %S" e frag
  in
  check_err "array A 2" "nest";
  check_err "nest x\nstmt S depth 1 extent 4\n  read A [1]" "unknown array";
  check_err "nest x\narray A 1\n  read A [1]" "outside";
  check_err "nest x\narray A 1\nstmt S depth 1 extent 4\n  read A [1" "unterminated"

let test_dsl_roundtrip_examples () =
  List.iter
    (fun (w : Resopt.Workloads.t) ->
      let txt = Nestir.Dsl.print_with_schedule w.Resopt.Workloads.nest None in
      match Nestir.Dsl.parse txt with
      | Error e -> Alcotest.failf "%s does not round-trip: %s" w.Resopt.Workloads.name e
      | Ok nest2 ->
        Alcotest.(check string)
          (w.Resopt.Workloads.name ^ " round-trips")
          txt
          (Nestir.Dsl.print_with_schedule nest2 None))
    (Resopt.Workloads.all ())

(* ------------------------------------------------------------------ *)
(* n-D decomposition                                                   *)
(* ------------------------------------------------------------------ *)

let test_nd_small () =
  Alcotest.(check int) "identity: no factors" 0
    (List.length (Decomp.Decompose_nd.decompose (Mat.identity 3)));
  let t = Mat.of_lists [ [ 1; 2; 0 ]; [ 0; 1; 0 ]; [ 3; 0; 1 ] ] in
  let fs = Decomp.Decompose_nd.decompose t in
  Alcotest.check mat "reconstructs" t (Decomp.Elementary.product fs);
  Alcotest.(check bool) "all elementary" true
    (List.for_all Decomp.Elementary.is_elementary fs)

let test_nd_negative_pair () =
  (* diag(-1,-1): the S^2 trick *)
  let t = Mat.of_lists [ [ -1; 0 ]; [ 0; -1 ] ] in
  let fs = Decomp.Decompose_nd.decompose t in
  Alcotest.check mat "reconstructs -Id" t (Decomp.Elementary.product fs)

let test_nd_rejects () =
  Alcotest.check_raises "det -1"
    (Invalid_argument "Decompose_nd: determinant must be 1") (fun () ->
      ignore (Decomp.Decompose_nd.decompose (Mat.of_lists [ [ 0; 1 ]; [ 1; 0 ] ])))

let nd_props =
  let gen =
    QCheck.Gen.(
      int_range 2 4 >>= fun dim ->
      int_range 0 10000 >>= fun seed ->
      return (dim, seed))
  in
  let arb =
    QCheck.make ~print:(fun (d, s) -> Printf.sprintf "dim %d seed %d" d s) gen
  in
  [
    prop ~count:200 "random SL_n matrices factor into transvections" arb
      (fun (dim, seed) ->
        let st = Random.State.make [| seed |] in
        let m = Unimodular.random ~dim ~ops:12 st in
        let m =
          if Mat.det m = 1 then m
          else
            (* flip one row's sign to reach SL_n *)
            Mat.mul
              (Mat.make dim dim (fun i j ->
                   if i = j then (if i = 0 then -1 else 1) else 0))
              m
        in
        let fs = Decomp.Decompose_nd.decompose m in
        (fs = [] && Mat.is_identity m)
        || (Mat.equal m (Decomp.Elementary.product fs)
            && List.for_all Decomp.Elementary.is_elementary fs));
  ]

(* ------------------------------------------------------------------ *)
(* Cost                                                                *)
(* ------------------------------------------------------------------ *)

let test_cost_orders_strategies () =
  (* on every workload with residuals, the optimized plan must not be
     more expensive than the step-1-only baseline on the CM-5 model *)
  let cm5 = Machine.Models.cm5 () in
  List.iter
    (fun (w : Resopt.Workloads.t) ->
      let nest = w.Resopt.Workloads.nest and schedule = w.Resopt.Workloads.schedule in
      let on = Resopt.Pipeline.run ~schedule nest in
      let off = Resopt.Feautrier.run ~schedule nest in
      let c_on = (Resopt.Cost.of_plan cm5 on.Resopt.Pipeline.plan).Resopt.Cost.total in
      let c_off = (Resopt.Cost.of_plan cm5 off.Resopt.Feautrier.plan).Resopt.Cost.total in
      if c_on > c_off +. 1e-6 then
        Alcotest.failf "%s: optimized %.1f > baseline %.1f" w.Resopt.Workloads.name
          c_on c_off)
    (Resopt.Workloads.all ())

let test_cost_local_free () =
  let w = Resopt.Workloads.find "example5" in
  let r = Resopt.Pipeline.run ~schedule:w.Resopt.Workloads.schedule w.Resopt.Workloads.nest in
  let c = Resopt.Cost.of_plan (Machine.Models.cm5 ()) r.Resopt.Pipeline.plan in
  Alcotest.(check (float 0.0)) "communication-free mapping costs zero" 0.0
    c.Resopt.Cost.total

(* ------------------------------------------------------------------ *)
(* Validate                                                            *)
(* ------------------------------------------------------------------ *)

let test_validate_all_workloads () =
  List.iter
    (fun (w : Resopt.Workloads.t) ->
      let r = Resopt.Pipeline.run ~schedule:w.Resopt.Workloads.schedule w.Resopt.Workloads.nest in
      let violations = Resopt.Validate.check r in
      if violations <> [] then
        Alcotest.failf "%s: %s" w.Resopt.Workloads.name
          (String.concat "; "
             (List.map
                (fun (v : Resopt.Validate.violation) ->
                  Printf.sprintf "%s/%s: %s" v.stmt v.label v.reason)
                violations)))
    (Resopt.Workloads.all ())

let test_validate_catches_lies () =
  (* corrupt a plan: claim a residual access is local; the validator
     must object *)
  let nest = Nestir.Paper_examples.example1 () in
  let r = Resopt.Pipeline.run ~m:2 nest in
  let lied =
    {
      r with
      Resopt.Pipeline.plan =
        List.map
          (fun (e : Resopt.Commplan.entry) ->
            if e.Resopt.Commplan.label = "F3" then
              { e with Resopt.Commplan.classification = Resopt.Commplan.Local }
            else e)
          r.Resopt.Pipeline.plan;
    }
  in
  Alcotest.(check bool) "lie detected" false (Resopt.Validate.is_valid lied)

(* ------------------------------------------------------------------ *)
(* Codegen                                                             *)
(* ------------------------------------------------------------------ *)

let test_codegen_example1 () =
  let nest = Nestir.Paper_examples.example1 () in
  let r = Resopt.Pipeline.run ~m:2 nest in
  let code = Resopt.Codegen.emit r in
  Alcotest.(check bool) "has PROCESSORS" true (contains code "!HPF$ PROCESSORS");
  Alcotest.(check bool) "aligns a" true (contains code "ALIGN a(");
  Alcotest.(check bool) "broadcast annotated" true (contains code "PARTIAL BROADCAST");
  Alcotest.(check bool) "decomposition annotated" true (contains code "DECOMPOSED");
  Alcotest.(check bool) "grouped recommendation" true (contains code "GROUPED(")

let test_align_expr () =
  let m = Mat.of_lists [ [ 1; 2 ]; [ 0; -1 ] ] in
  Alcotest.(check (list string)) "expressions" [ "i1+2*i2"; "-i2" ]
    (Resopt.Codegen.align_expr m)

(* ------------------------------------------------------------------ *)
(* Weighting ablation                                                  *)
(* ------------------------------------------------------------------ *)

let test_weighting_flag () =
  let nest = Nestir.Paper_examples.example1 () in
  let rank_w = Alignment.Alloc.run ~m:2 nest in
  let unit_w = Alignment.Alloc.run ~weighting:`Unit ~m:2 nest in
  Alcotest.(check bool) "both verify" true
    (Reference.verify_alloc rank_w && Reference.verify_alloc unit_w);
  (* unit weights lose the volume priority but still local-count 6 on
     this example (ties resolved by program order) *)
  Alcotest.(check bool) "unit weights keep a legal branching" true
    (List.length unit_w.Alignment.Alloc.local >= 5)

(* ------------------------------------------------------------------ *)
(* Eventsim                                                            *)
(* ------------------------------------------------------------------ *)

let ev_params = { Machine.Eventsim.bytes_per_cycle = 16; startup_cycles = 8; mode = Machine.Eventsim.Store_forward }

let test_eventsim_empty () =
  let t = Machine.Topology.mesh2d ~p:4 ~q:4 in
  let r = Machine.Eventsim.run t ev_params (Reference.raw t []) in
  Alcotest.(check int) "no cycles needed" 0 r.Machine.Eventsim.cycles;
  let local = [ Machine.Message.make ~src:2 ~dst:2 ~bytes:100 ] in
  Alcotest.(check int) "local delivered free" 1
    (Machine.Eventsim.run t ev_params (Reference.raw t local))
      .Machine.Eventsim.delivered

let test_eventsim_single () =
  let t = Machine.Topology.make [| 4 |] in
  let r =
    Machine.Eventsim.run t ev_params
      (Reference.raw t [ Machine.Message.make ~src:0 ~dst:1 ~bytes:32 ])
  in
  Alcotest.(check int) "delivered" 1 r.Machine.Eventsim.delivered;
  (* 32 bytes at 16/cycle over one link = 2 busy cycles *)
  Alcotest.(check int) "busy cycles" 2 r.Machine.Eventsim.total_link_busy

let test_eventsim_contention_serializes () =
  (* two messages over the same link take twice as long as one *)
  let t = Machine.Topology.make [| 2 |] in
  let one =
    Machine.Eventsim.run t ev_params
      (Reference.raw t [ Machine.Message.make ~src:0 ~dst:1 ~bytes:160 ])
  in
  let two =
    Machine.Eventsim.run t ev_params
      (Reference.raw t
         [
           Machine.Message.make ~src:0 ~dst:1 ~bytes:160;
           Machine.Message.make ~src:0 ~dst:1 ~bytes:160;
         ])
  in
  Alcotest.(check bool) "serialized" true
    (two.Machine.Eventsim.cycles >= one.Machine.Eventsim.cycles + 10)

let test_eventsim_agrees_with_netsim () =
  (* cross-validation on the Table 2 comparison: both simulators must
     rank the decomposed sequence ahead of the direct communication *)
  let par = Machine.Models.paragon () in
  let topo = par.Machine.Models.topo in
  let vgrid = [| 32; 16 |] in
  let layout = Distrib.Layout.all_cyclic 2 in
  let place v = Distrib.Layout.place layout ~vgrid ~topo v in
  let msgs flow = Reference.affine_messages ~vgrid ~flow ~bytes:8 ~place () in
  let t = Linalg.Mat.of_lists [ [ 1; 2 ]; [ 3; 7 ] ] in
  let u = Linalg.Mat.of_lists [ [ 1; 2 ]; [ 0; 1 ] ] in
  let l = Linalg.Mat.of_lists [ [ 1; 0 ]; [ 3; 1 ] ] in
  let events ~coalesce flow =
    (Machine.Eventsim.run topo Machine.Eventsim.default_params
       (Machine.Netsim.volume ~coalesce topo (Machine.Message.of_list (msgs flow))))
      .Machine.Eventsim.cycles
  in
  let direct = events ~coalesce:false t in
  let phases = List.fold_left (fun acc f -> acc + events ~coalesce:true f) 0 [ u; l ] in
  Alcotest.(check bool) "decomposition wins in the event simulator too" true
    (phases < direct)

(* ------------------------------------------------------------------ *)
(* Report and SP-2                                                     *)
(* ------------------------------------------------------------------ *)

let test_report () =
  let nest = Nestir.Paper_examples.example1 () in
  let r = Resopt.Pipeline.run ~m:2 nest in
  let md = Resopt.Report.markdown r in
  Alcotest.(check bool) "has plan table" true (contains md "| access | array |");
  Alcotest.(check bool) "has cost table" true (contains md "cm5");
  Alcotest.(check bool) "validated" true (contains md "[validated]");
  Alcotest.(check bool) "has directives" true (contains md "!HPF$")

(* ------------------------------------------------------------------ *)
(* Distexec                                                            *)
(* ------------------------------------------------------------------ *)

let test_distexec_semantics () =
  List.iter
    (fun (w : Resopt.Workloads.t) ->
      let r = Resopt.Pipeline.run ~schedule:w.Resopt.Workloads.schedule w.Resopt.Workloads.nest in
      let s = Resopt.Distexec.run r in
      Alcotest.(check bool)
        (w.Resopt.Workloads.name ^ " semantics preserved")
        true s.Resopt.Distexec.semantics_preserved;
      Alcotest.(check bool)
        (w.Resopt.Workloads.name ^ " local accesses silent")
        true s.Resopt.Distexec.local_accesses_silent)
    (Resopt.Workloads.all ())

let test_distexec_example5_free () =
  (* the communication-free mapping really sends nothing *)
  let w = Resopt.Workloads.find "example5" in
  let r = Resopt.Pipeline.run ~schedule:w.Resopt.Workloads.schedule w.Resopt.Workloads.nest in
  let s = Resopt.Distexec.run r in
  Alcotest.(check int) "zero messages" 0 s.Resopt.Distexec.total_messages

let test_distexec_residuals_speak () =
  (* example 1's residual broadcast and decomposed access do move data *)
  let nest = Nestir.Paper_examples.example1 () in
  let r = Resopt.Pipeline.run ~m:2 nest in
  let s = Resopt.Distexec.run r in
  let msgs label =
    (List.find (fun t -> t.Resopt.Distexec.label = label) s.Resopt.Distexec.traffic)
      .Resopt.Distexec.messages
  in
  Alcotest.(check bool) "F6 broadcast sends" true (msgs "F6" > 0);
  Alcotest.(check bool) "F3 decomposed sends" true (msgs "F3" > 0);
  Alcotest.(check int) "F1 local silent" 0 (msgs "F1")

(* ------------------------------------------------------------------ *)
(* Error paths                                                         *)
(* ------------------------------------------------------------------ *)

let test_error_paths () =
  let inv name f = Alcotest.check_raises name (Invalid_argument name) f in
  ignore inv;
  let raises_invalid f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "Mat.make 0x0" true
    (raises_invalid (fun () -> Mat.make 0 1 (fun _ _ -> 0)));
  Alcotest.(check bool) "Rat.to_int fraction" true
    (raises_invalid (fun () -> Rat.to_int (Rat.inv (Rat.of_int 2))));
  Alcotest.(check bool) "Topology bad coords" true
    (raises_invalid (fun () ->
         Machine.Topology.rank_of (Machine.Topology.make [| 4 |]) [| 1; 2 |]));
  Alcotest.(check bool) "Eventsim bad params" true
    (raises_invalid (fun () ->
         let topo = Machine.Topology.make [| 2 |] in
         Machine.Eventsim.run topo
           { Machine.Eventsim.bytes_per_cycle = 0; startup_cycles = 0;
             mode = Machine.Eventsim.Store_forward }
           (Reference.raw topo [])));
  Alcotest.(check bool) "Layout grouped k=0" true
    (raises_invalid (fun () ->
         Distrib.Layout.place1d (Distrib.Layout.Grouped 0) ~nv:4 ~np:2 1));
  Alcotest.(check bool) "Collective bad axis" true
    (raises_invalid (fun () ->
         Machine.Collective.partial_broadcast (Machine.Topology.make [| 4 |])
           { Machine.Netsim.alpha = 1.0; beta = 0.1; hop = 0.1 }
           ~axis:3 ~bytes:8))

(* ------------------------------------------------------------------ *)
(* SPMD generation                                                     *)
(* ------------------------------------------------------------------ *)

let test_spmd_example1 () =
  let r = Resopt.Pipeline.run ~m:2 (Nestir.Paper_examples.example1 ()) in
  let code = Resopt.Codegen.emit_spmd r in
  Alcotest.(check bool) "hoisted preamble" true (contains code "hoisted");
  Alcotest.(check bool) "per-timestep broadcast" true
    (contains code "partial_broadcast(a);  /* per timestep: F6 */");
  Alcotest.(check bool) "distributed loops" true (contains code "my_indices(BLOCK");
  Alcotest.(check bool) "local inner loop" true (contains code "for (i3 = 0; i3 < 16; i3++)");
  Alcotest.(check bool) "decomposed phases called" true
    (contains code "decomposed_phases(a, 2)")

let test_spmd_local_nest () =
  (* a fully local nest: no communication calls at all *)
  let w = Resopt.Workloads.find "example5" in
  let r = Resopt.Pipeline.run ~schedule:w.Resopt.Workloads.schedule w.Resopt.Workloads.nest in
  let code = Resopt.Codegen.emit_spmd r in
  Alcotest.(check bool) "no broadcast" false (contains code "broadcast(");
  Alcotest.(check bool) "no general" false (contains code "general_comm(")

(* ------------------------------------------------------------------ *)
(* Wormhole                                                            *)
(* ------------------------------------------------------------------ *)

let wh p = { p with Machine.Eventsim.mode = Machine.Eventsim.Wormhole }

let test_wormhole_single () =
  let topo = Machine.Topology.make [| 5 |] in
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
  let topo = Machine.Topology.make [| 8 |] in
  let base = { Machine.Eventsim.bytes_per_cycle = 16; startup_cycles = 10; mode = Machine.Eventsim.Store_forward } in
  let msgs = [ Machine.Message.make ~src:0 ~dst:7 ~bytes:1600 ] in
  let sf = Machine.Eventsim.run topo base (Reference.raw topo msgs) in
  let whr = Machine.Eventsim.run topo (wh base) (Reference.raw topo msgs) in
  Alcotest.(check bool) "wormhole faster on long paths" true
    (whr.Machine.Eventsim.cycles < sf.Machine.Eventsim.cycles)

let test_wormhole_contention () =
  (* two messages sharing a link serialize in both modes *)
  let topo = Machine.Topology.make [| 2 |] in
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
    prop ~count:100 "both modes deliver everything" arb (fun (s, d, b) ->
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
  Alcotest.run "extensions"
    [
      ( "torus",
        [
          Alcotest.test_case "ring basics" `Quick test_torus_basics;
          Alcotest.test_case "torus3d" `Quick test_torus3d;
          Alcotest.test_case "t3d model" `Quick test_t3d_model;
        ]
        @ torus_props );
      ( "dsl",
        [
          Alcotest.test_case "parse" `Quick test_dsl_parse;
          Alcotest.test_case "errors" `Quick test_dsl_errors;
          Alcotest.test_case "round-trip all workloads" `Quick
            test_dsl_roundtrip_examples;
        ] );
      ( "decompose-nd",
        [
          Alcotest.test_case "small cases" `Quick test_nd_small;
          Alcotest.test_case "negative pair" `Quick test_nd_negative_pair;
          Alcotest.test_case "rejects det != 1" `Quick test_nd_rejects;
        ]
        @ nd_props );
      ( "cost",
        [
          Alcotest.test_case "optimized never dearer" `Quick
            test_cost_orders_strategies;
          Alcotest.test_case "local plans are free" `Quick test_cost_local_free;
        ] );
      ( "validate",
        [
          Alcotest.test_case "all workloads consistent" `Quick
            test_validate_all_workloads;
          Alcotest.test_case "catches misclassification" `Quick
            test_validate_catches_lies;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "example 1 annotations" `Quick test_codegen_example1;
          Alcotest.test_case "alignment expressions" `Quick test_align_expr;
        ] );
      ( "weighting",
        [ Alcotest.test_case "unit vs rank" `Quick test_weighting_flag ] );
      ( "distexec",
        [
          Alcotest.test_case "semantics preserved everywhere" `Quick
            test_distexec_semantics;
          Alcotest.test_case "example 5 is communication-free" `Quick
            test_distexec_example5_free;
          Alcotest.test_case "residuals move data" `Quick
            test_distexec_residuals_speak;
        ] );
      ( "eventsim",
        [
          Alcotest.test_case "empty and local" `Quick test_eventsim_empty;
          Alcotest.test_case "single message" `Quick test_eventsim_single;
          Alcotest.test_case "link contention serializes" `Quick
            test_eventsim_contention_serializes;
          Alcotest.test_case "agrees with the closed-form model" `Quick
            test_eventsim_agrees_with_netsim;
        ] );
      ( "report",
        [
          Alcotest.test_case "markdown report" `Quick test_report;
        ] );
      ("errors", [ Alcotest.test_case "systematic" `Quick test_error_paths ]);
      ( "spmd",
        [
          Alcotest.test_case "example 1" `Quick test_spmd_example1;
          Alcotest.test_case "local nest" `Quick test_spmd_local_nest;
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
