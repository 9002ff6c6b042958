(* End-to-end tests for the two-step heuristic, the baselines, the
   communication plans and their phases, the grid-dimension choice
   and the sweep (resopt library). *)

open Resopt

let prop ?(count = 100) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let run name =
  let w = Workloads.find name in
  Pipeline.run ~schedule:w.Workloads.schedule w.Workloads.nest

(* ------------------------------------------------------------------ *)
(* Example 1: the paper's walkthrough                                  *)
(* ------------------------------------------------------------------ *)

let test_example1_summary () =
  let r = run "example1" in
  let s = Pipeline.summary r in
  (* paper §2.4 / §3: 6 local communications (4 exact + 2 constant
     translations), one broadcast for F6 (plus the rank-deficient F9,
     also a broadcast: the footnote case), and F3 decomposed into two
     elementary communications *)
  Alcotest.(check int) "total" 9 s.Commplan.total;
  Alcotest.(check int) "local + translations" 6
    (s.Commplan.local + s.Commplan.translations);
  Alcotest.(check int) "broadcasts" 2 s.Commplan.broadcasts;
  Alcotest.(check int) "decomposed" 1 s.Commplan.decomposed;
  Alcotest.(check int) "no general residue" 0 s.Commplan.general

let find_entry r stmt label =
  List.find
    (fun e -> e.Commplan.stmt = stmt && e.Commplan.label = label)
    r.Pipeline.plan

let test_example1_f6_broadcast () =
  let r = run "example1" in
  match (find_entry r "S2" "F6").Commplan.classification with
  | Commplan.Broadcast info ->
    Alcotest.(check bool) "partial" true
      (info.Macrocomm.Broadcast.classification = Macrocomm.Broadcast.Partial);
    Alcotest.(check bool) "axis aligned after rotation" true
      info.Macrocomm.Broadcast.axis_aligned
  | c -> Alcotest.failf "F6 classified %s" (Commplan.classification_name c)

let test_example1_f3_decomposed () =
  let r = run "example1" in
  match (find_entry r "S1" "F3").Commplan.classification with
  | Commplan.Decomposed { flow; factors } ->
    Alcotest.(check int) "two elementary factors" 2 (List.length factors);
    Alcotest.(check int) "det 1" 1 (Linalg.Mat.det flow)
  | c -> Alcotest.failf "F3 classified %s" (Commplan.classification_name c)

let test_example1_f9_footnote () =
  (* the rank-deficient access also becomes a broadcast parallel to an
     axis after the rotation (paper footnote in §3) *)
  let r = run "example1" in
  match (find_entry r "S3" "F9").Commplan.classification with
  | Commplan.Broadcast info ->
    Alcotest.(check bool) "axis aligned" true info.Macrocomm.Broadcast.axis_aligned
  | c -> Alcotest.failf "F9 classified %s" (Commplan.classification_name c)

let test_example1_rotation_applied () =
  let r = run "example1" in
  Alcotest.(check bool) "one rotation" true (List.length r.Pipeline.rotations >= 1);
  Alcotest.(check bool) "alignment still verifies" true
    (Reference.verify_alloc r.Pipeline.alloc)

(* ------------------------------------------------------------------ *)
(* Example 5: comparison with Platonoff                                *)
(* ------------------------------------------------------------------ *)

let test_example5_comparison () =
  let w = Workloads.find "example5" in
  let ours = Pipeline.run ~schedule:w.Workloads.schedule w.Workloads.nest in
  let plat = Platonoff.run ~schedule:w.Workloads.schedule w.Workloads.nest in
  (* §7.2: our strategy computes the nest without any communication,
     Platonoff's keeps n broadcasts *)
  Alcotest.(check int) "ours: zero communications" 0 (Pipeline.non_local ours);
  Alcotest.(check int) "platonoff: one broadcast per timestep" 1
    (Platonoff.non_local plat);
  Alcotest.(check (list (pair string string))) "reserved access"
    [ ("S", "Fb") ] plat.Platonoff.reserved;
  let s = Commplan.summarize plat.Platonoff.plan in
  Alcotest.(check int) "it is a broadcast" 1 s.Commplan.broadcasts

let test_platonoff_respects_constraint () =
  (* the preserved broadcast must not be hidden by the mapping *)
  let w = Workloads.find "example5" in
  let plat = Platonoff.run ~schedule:w.Workloads.schedule w.Workloads.nest in
  let ms =
    Alignment.Alloc.alloc_of plat.Platonoff.alloc (Alignment.Access_graph.Stmt_v "S")
  in
  (* broadcast direction = e4 (the k loop) *)
  let v = Linalg.Mat.of_col [| 0; 0; 0; 1 |] in
  Alcotest.(check bool) "M_S e4 <> 0" false (Linalg.Mat.is_zero (Linalg.Mat.mul ms v))

(* ------------------------------------------------------------------ *)
(* Other workloads                                                     *)
(* ------------------------------------------------------------------ *)

let test_matmul_reductions () =
  let r = run "matmul" in
  let s = Pipeline.summary r in
  Alcotest.(check int) "A and B feed reductions" 2 s.Commplan.reductions;
  Alcotest.(check int) "C stays local" 2 (s.Commplan.local + s.Commplan.translations)

let test_gauss_broadcasts () =
  let r = run "gauss" in
  let s = Pipeline.summary r in
  Alcotest.(check int) "pivot row and column broadcast" 2 s.Commplan.broadcasts

let test_stencil_translations () =
  let r = run "stencil" in
  Alcotest.(check int) "everything local or shift" 0 (Pipeline.non_local r);
  let s = Pipeline.summary r in
  Alcotest.(check int) "four shifts" 4 s.Commplan.translations

let test_all_workloads_run () =
  List.iter
    (fun (w : Workloads.t) ->
      let r = Pipeline.run ~schedule:w.Workloads.schedule w.Workloads.nest in
      let s = Pipeline.summary r in
      Alcotest.(check int)
        (w.Workloads.name ^ " covers all accesses")
        (List.length (Nestir.Loopnest.all_accesses w.Workloads.nest))
        s.Commplan.total;
      Alcotest.(check bool)
        (w.Workloads.name ^ " alignment verifies")
        true
        (Reference.verify_alloc r.Pipeline.alloc))
    (Workloads.all ())

let test_workloads_lookup () =
  Alcotest.(check bool) "workloads non-empty" true (List.length (Workloads.all ()) >= 8);
  Alcotest.(check string) "find" "matmul" (Workloads.find "matmul").Workloads.name;
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Workloads.find "nope"))

(* ------------------------------------------------------------------ *)
(* Feautrier ablation                                                  *)
(* ------------------------------------------------------------------ *)

let test_feautrier_ablation () =
  let w = Workloads.find "example1" in
  let ours = Pipeline.run ~schedule:w.Workloads.schedule w.Workloads.nest in
  let fea = Feautrier.run ~schedule:w.Workloads.schedule w.Workloads.nest in
  let so = Pipeline.summary ours and sf = Feautrier.summary fea in
  (* step 1 is shared: same local count *)
  Alcotest.(check int) "same locals"
    (so.Commplan.local + so.Commplan.translations)
    (sf.Commplan.local + sf.Commplan.translations);
  (* without step 2 every residual is a general communication *)
  Alcotest.(check int) "residuals downgraded"
    (so.Commplan.broadcasts + so.Commplan.decomposed)
    sf.Commplan.general

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let pipeline_props =
  let arb =
    QCheck.make
      ~print:(fun i -> (List.nth (Workloads.all ()) i).Workloads.name)
      QCheck.Gen.(int_range 0 (List.length (Workloads.all ()) - 1))
  in
  [
    prop ~count:30 "plans are exhaustive and verified" arb (fun i ->
        let w = List.nth (Workloads.all ()) i in
        let r = Pipeline.run ~schedule:w.Workloads.schedule w.Workloads.nest in
        let s = Pipeline.summary r in
        s.Commplan.total
        = s.Commplan.local + s.Commplan.reductions + s.Commplan.broadcasts
          + s.Commplan.scatters + s.Commplan.gathers + s.Commplan.translations
          + s.Commplan.decomposed + s.Commplan.general
        && Reference.verify_alloc r.Pipeline.alloc);
    prop ~count:30 "decomposed entries multiply back" arb (fun i ->
        let w = List.nth (Workloads.all ()) i in
        let r = Pipeline.run ~schedule:w.Workloads.schedule w.Workloads.nest in
        List.for_all
          (fun e ->
            match e.Commplan.classification with
            | Commplan.Decomposed { flow; factors } ->
              Linalg.Mat.equal flow
                (Decomp.Elementary.product (Linalg.Mat.identity 2 :: factors))
            | _ -> true)
          r.Pipeline.plan);
  ]

(* ------------------------------------------------------------------ *)
(* Cell pricing differential                                           *)
(* ------------------------------------------------------------------ *)

(* The baseline derived from a pipeline run, and the one [Feautrier.run]
   builds alone, against step 1 computed on its own: same allocation,
   same plan, same summary.  A pipeline that raises only skips the
   derived side: a sweep skips that cell whichever step raised. *)
let baseline_matches ~m ~schedule nest =
  let attempt f = match f () with x -> Some x | exception _ -> None in
  let encode alloc plan summary m =
    ( Format.asprintf "%a" Alignment.Alloc.pp alloc,
      Format.asprintf "%a" Commplan.pp plan,
      summary,
      m )
  in
  let of_result (b : Feautrier.result) =
    encode b.Feautrier.alloc b.Feautrier.plan (Feautrier.summary b) b.Feautrier.m
  in
  let reference =
    attempt (fun () ->
        let alloc, plan = Reference.feautrier ~m ~schedule nest in
        encode alloc plan (Commplan.summarize plan) m)
  in
  let alone = attempt (fun () -> of_result (Feautrier.run ~m ~schedule nest)) in
  let derived =
    attempt (fun () -> of_result (Feautrier.of_pipeline (Pipeline.run ~m ~schedule nest)))
  in
  alone = reference && (derived = None || derived = reference)

let baseline_props =
  let arb =
    QCheck.make
      ~print:(fun (seed, m) -> Printf.sprintf "gennest seed %d, m = %d" seed m)
      QCheck.Gen.(pair (int_range 0 50_000) (int_range 1 3))
  in
  [
    prop ~count:150 "of_pipeline = run (generated)" arb (fun (seed, m) ->
        let nest = Reference.generated ~seed:(seed + 11_000_000) in
        baseline_matches ~m ~schedule:(Nestir.Schedule.all_parallel nest) nest);
  ]

let test_baseline_curated () =
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (Printf.sprintf "%s m=%d" w.Workloads.name m)
            true
            (baseline_matches ~m ~schedule:w.Workloads.schedule w.Workloads.nest))
        [ 1; 2; 3 ])
    (Workloads.all ())

(* Every plan of the curated workloads (m = 1..3) and of 200 generated
   nests (m = 2) that carries a decomposed entry. *)
let decomposed_plans () =
  List.filter_map
    (fun ((w : Workloads.t), m) ->
      match Pipeline.run ~m ~schedule:w.Workloads.schedule w.Workloads.nest with
      | exception _ -> None
      | r ->
        let plan = r.Pipeline.plan in
        if
          List.exists
            (fun e ->
              match e.Commplan.classification with
              | Commplan.Decomposed _ -> true
              | _ -> false)
            plan
        then Some (Printf.sprintf "%s m=%d" w.Workloads.name m, plan)
        else None)
    (List.concat_map (fun w -> [ (w, 1); (w, 2); (w, 3) ]) (Workloads.all ())
    @ List.map (fun w -> (w, 2)) (Workloads.generated ~seed:100003 ~count:200))

let diff_models () =
  let of_spec s = Machine.Models.of_topo (Result.get_ok (Machine.Topology.of_string s)) in
  [ Machine.Models.cm5 (); Machine.Models.paragon (); of_spec "torus:8x8"; of_spec "fattree:3:4" ]

(* Healthy; a global and a one-link drop rate; the topology's first
   link cut for the whole run. *)
let diff_faults topo =
  let a, b = fst (List.hd (Machine.Topology.links topo)) in
  [
    Machine.Fault.none;
    Machine.Fault.make
      [
        Machine.Fault.Flaky { link = None; prob = 0.05 };
        Machine.Fault.Flaky { link = Some (a, b); prob = 0.3 };
      ];
    Machine.Fault.make
      [ Machine.Fault.Link_down { a; b; from_cycle = 0; until_cycle = max_int } ];
  ]

(* [Cost.of_plan] stops a decomposition's phases at the direct price;
   the reference walks them all, then takes the minimum.  Every
   decomposed entry must price to the same bits, and the corpus must
   see both sides win. *)
let test_decomposed_diff () =
  let plans = decomposed_plans () in
  Alcotest.(check bool) "corpus has decomposed plans" true (List.length plans >= 5);
  let direct_wins = ref 0 and phases_win = ref 0 in
  Cache.scoped ~enable:false @@ fun () ->
  List.iter
    (fun (name, plan) ->
      List.iter
        (fun (model : Machine.Models.t) ->
          List.iter
            (fun faults ->
              List.iter
                (fun mapping ->
                  let b = Cost.of_plan ~faults ?mapping model plan in
                  let got =
                    List.filter_map
                      (fun ((e : Commplan.entry), (c : Cost.entry_cost)) ->
                        match e.Commplan.classification with
                        | Commplan.Decomposed _ -> Some c.Cost.cost
                        | _ -> None)
                      (List.combine plan b.Cost.entries)
                  in
                  let want =
                    List.map
                      (fun (phases, direct) ->
                        incr (if direct < phases then direct_wins else phases_win);
                        min phases direct)
                      (Reference.decomposed_costs ?mapping ~faults model plan)
                  in
                  let label =
                    Printf.sprintf "%s on %s, %s%s" name model.Machine.Models.name
                      (if Machine.Fault.is_none faults then "healthy"
                       else Machine.Fault.label faults)
                      (if mapping = None then "" else ", greedy")
                  in
                  Alcotest.(check (list int64)) label
                    (List.map Int64.bits_of_float want)
                    (List.map Int64.bits_of_float got))
                [ None; Some (Mapping.spec Mapping.Greedy) ])
            (diff_faults model.Machine.Models.topo))
        (diff_models ()))
    plans;
  Alcotest.(check bool) "the direct path wins somewhere" true (!direct_wins > 0);
  Alcotest.(check bool) "the phases win somewhere" true (!phases_win > 0)

(* ------------------------------------------------------------------ *)
(* Row fold                                                            *)
(* ------------------------------------------------------------------ *)

(* A sweep row and a served mapping block build each plan's residual
   fold once and read every price, the placement and the bounds off
   it.  Each column must be, bit for bit, what the separate public
   calls give, each of which builds a fold of its own. *)
let row_models () =
  let of_spec s = Machine.Models.of_topo (Result.get_ok (Machine.Topology.of_string s)) in
  [
    Machine.Models.cm5 ();
    Machine.Models.paragon ();
    Machine.Models.t3d ();
    of_spec "fattree:2:4";
    of_spec "torus:4x4";
  ]

(* The first generated nests, those with residual flows and some
   without. *)
let row_workloads () = Workloads.generated ~seed:100003 ~count:45

let bits = Int64.bits_of_float

(* [Sweep]'s fault model at one resilience rate. *)
let faults_at base rate =
  Machine.Fault.make ~seed:(Machine.Fault.seed base)
    (Machine.Fault.specs base
    @ if rate > 0.0 then [ Machine.Fault.Flaky { link = None; prob = rate } ] else [])

let test_row_fold () =
  let models = row_models () and workloads = row_workloads () in
  let flaky = Machine.Fault.make [ Machine.Fault.Flaky { link = None; prob = 0.02 } ] in
  let with_flows = ref 0 in
  List.iter
    (fun (mapping, base_faults) ->
      let rates = [ 0.0; 0.01; 0.05 ] in
      let rows =
        Sweep.run ~ms:[ 2 ] ~models ~workloads ~faults:base_faults ~cache:false ~mapping
          ~bounds:true ()
      in
      Cache.scoped ~enable:false @@ fun () ->
      List.iter
        (fun (row : Sweep.row) ->
          let w = List.find (fun (w : Workloads.t) -> w.Workloads.name = row.Sweep.workload) workloads in
          let model = List.find (fun (m : Machine.Models.t) -> m.Machine.Models.name = row.Sweep.model) models in
          let opt = Pipeline.run ~m:2 ~schedule:w.Workloads.schedule w.Workloads.nest in
          let base = Feautrier.of_pipeline opt in
          let price ?faults ?mapping plan = (Cost.of_plan ?faults ?mapping model plan).Cost.total in
          let optimized = price opt.Pipeline.plan in
          if Residual.flows_of_workload ~m:2 w <> [] then incr with_flows;
          let label =
            Printf.sprintf "%s on %s, %s, %s" row.Sweep.workload row.Sweep.model
              (Mapping.kind_to_string mapping.Mapping.kind)
              (Machine.Fault.label base_faults)
          in
          Alcotest.(check int64) (label ^ ": optimized") (bits optimized) (bits row.Sweep.optimized);
          Alcotest.(check int64) (label ^ ": baseline")
            (bits (price base.Feautrier.plan)) (bits row.Sweep.baseline);
          let mapped = price ~mapping opt.Pipeline.plan in
          Alcotest.(check (option int64)) (label ^ ": map_gain")
            (Some (bits (if mapped > 0.0 then optimized /. mapped else 1.0)))
            (Option.map bits row.Sweep.map_gain);
          Alcotest.(check (option int64)) (label ^ ": eff")
            (Option.map
               (fun e -> bits e.Efficiency.time.Bounds.efficiency)
               (Efficiency.of_plan ~mapping model opt.Pipeline.plan))
            (Option.map bits row.Sweep.eff);
          Alcotest.(check (list (pair int64 int64))) (label ^ ": resilience")
            (List.map
               (fun rate ->
                 let faults = faults_at base_faults rate in
                 let o = price ~faults opt.Pipeline.plan
                 and b = price ~faults base.Feautrier.plan in
                 (bits rate, bits (if o > 0.0 then b /. o else 0.0)))
               rates)
            (List.map (fun (r, g) -> (bits r, bits g)) row.Sweep.resilience))
        rows)
    (List.concat_map
       (fun mapping -> [ (mapping, Machine.Fault.none); (mapping, flaky) ])
       [
         Mapping.spec Mapping.Identity;
         Mapping.spec Mapping.Greedy;
         Mapping.spec ~seed:3 Mapping.Search;
       ]);
  Alcotest.(check bool) "rows with residual flows" true (!with_flows >= 30)

(* One fold priced under several specs in turn: each spec's placement
   is its own search, and each price is what a fresh fold gives. *)
let test_row_fold_specs () =
  Cache.scoped ~enable:false @@ fun () ->
  let specs =
    [
      Mapping.spec Mapping.Greedy;
      Mapping.spec ~seed:3 Mapping.Search;
      Mapping.spec Mapping.Identity;
      Mapping.spec ~seed:4 Mapping.Search;
      Mapping.spec Mapping.Greedy;
    ]
  in
  let priced = ref 0 in
  List.iter
    (fun (w : Workloads.t) ->
      match Pipeline.run ~m:2 ~schedule:w.Workloads.schedule w.Workloads.nest with
      | exception _ -> ()
      | r ->
        let plan = r.Pipeline.plan in
        List.iter
          (fun (model : Machine.Models.t) ->
            match Residual.of_plan model plan with
            | Some fold when fold.Residual.flows <> [] ->
              incr priced;
              let topo = model.Machine.Models.topo in
              let vol =
                Machine.Volgraph.of_traffic ~hosts:(Machine.Topology.size topo)
                  (Residual.traffic fold)
              in
              List.iter
                (fun spec ->
                  let label =
                    Printf.sprintf "%s on %s, %s seed %d" w.Workloads.name
                      model.Machine.Models.name
                      (Mapping.kind_to_string spec.Mapping.kind) spec.Mapping.seed
                  in
                  Alcotest.(check (array int)) (label ^ ": placement")
                    (Mapping.compute spec topo vol) (Residual.placement spec fold);
                  Alcotest.(check int64) (label ^ ": price")
                    (bits (Cost.of_plan ~mapping:spec model plan).Cost.total)
                    (bits
                       (Cost.of_fold ~faults:Machine.Fault.none ~mapping:(Some spec) model
                          (Some fold) plan)
                         .Cost.total))
                specs
            | _ -> ())
          [ Machine.Models.cm5 (); Machine.Models.paragon () ])
    (row_workloads ());
  Alcotest.(check bool) "folds with flows" true (!priced >= 6)

(* The served mapping block, against the block as separate calls
   render it: the volume graph, the placement and both prices each
   derived afresh. *)
let mapping_block_reference ~m (w : Workloads.t) spec =
  let r = Pipeline.run ~m ~schedule:w.Workloads.schedule w.Workloads.nest in
  let plan = r.Pipeline.plan in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "%a@." Pipeline.pp r;
  Format.fprintf ppf "@.process mapping (--map %s):@." (Mapping.kind_to_string spec.Mapping.kind);
  Format.fprintf ppf "  %-8s %12s %12s %8s %12s %12s %8s@." "model" "hop-bytes"
    "mapped" "gain" "cost" "cost+map" "gain_map";
  List.iter
    (fun (model : Machine.Models.t) ->
      match Residual.of_plan model plan with
      | None -> Format.fprintf ppf "  %-8s %12s@." model.Machine.Models.name "(no 2-D grid)"
      | Some traffic ->
        let topo = model.Machine.Models.topo in
        let vol = Machine.Volgraph.of_traffic ~hosts:(Machine.Topology.size topo) (Residual.traffic traffic) in
        let perm = Mapping.compute spec topo vol in
        let hb_id = Mapping.hop_bytes topo vol (Mapping.identity (Machine.Topology.size topo)) in
        let hb = Mapping.hop_bytes topo vol perm in
        let cost = (Cost.of_plan model plan).Cost.total in
        let mapped = (Cost.of_plan ~mapping:spec model plan).Cost.total in
        let gain num den = if den > 0.0 then num /. den else 1.0 in
        Format.fprintf ppf "  %-8s %12d %12d %7.2fx %12.1f %12.1f %7.2fx@."
          model.Machine.Models.name hb_id hb
          (gain (float_of_int hb_id) (float_of_int hb))
          cost mapped (gain cost mapped))
    [ Machine.Models.cm5 (); Machine.Models.paragon (); Machine.Models.t3d () ];
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_row_fold_answer () =
  Cache.scoped ~enable:false @@ fun () ->
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun (kind, spec) ->
          let name = w.Workloads.name in
          Alcotest.(check (result string string))
            (Printf.sprintf "%s --map %s" name kind)
            (Ok (mapping_block_reference ~m:2 w spec))
            (Serve.Answer.of_request (Serve.Wire.run ~map:kind ~mseed:5 name)))
        [
          ("greedy", Mapping.spec ~seed:5 Mapping.Greedy);
          ("search", Mapping.spec ~seed:5 Mapping.Search);
        ])
    (Workloads.all ())

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
(* The seidel workload end-to-end                                      *)
(* ------------------------------------------------------------------ *)

let test_seidel_workload () =
  let w = Resopt.Workloads.find "seidel" in
  let r = Resopt.Pipeline.run ~schedule:w.Resopt.Workloads.schedule w.Resopt.Workloads.nest in
  Alcotest.(check int) "all local or shifts" 0 (Resopt.Pipeline.non_local r);
  Alcotest.(check bool) "validated" true (Resopt.Validate.is_valid r)

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)
(* ------------------------------------------------------------------ *)

let test_phases_example5 () =
  (* the Platonoff baseline keeps a broadcast; its phases are what the
     message-vectorization machinery splits.  Our heuristic's plan for
     example5 is all-local: nothing left to hoist *)
  let w = Resopt.Workloads.find "example5" in
  let r = Resopt.Pipeline.run ~schedule:w.Resopt.Workloads.schedule w.Resopt.Workloads.nest in
  let p = Resopt.Phases.of_result r in
  Alcotest.(check int) "all local" 2 (List.length p.Resopt.Phases.local)

let test_phases_hoisting () =
  (* example1: vectorizable residuals hoist; the factor counts how many
     per-timestep messages the hoist saves *)
  let r = Resopt.Pipeline.run ~m:2 (Nestir.Paper_examples.example1 ()) in
  let p = Resopt.Phases.of_result r in
  Alcotest.(check bool) "something hoisted" true
    (List.length p.Resopt.Phases.hoisted >= 1)

let test_phases_sequential_schedule () =
  (* seidel's shifts read the array being written under a sequential
     (Lamport) schedule: the data changes every timestep, so the
     vectorization flag must be false and nothing hoists *)
  let nest = Nestir.Paper_examples.seidel () in
  let schedule = Option.get (Nestir.Schedule.lamport nest) in
  let p = Resopt.Phases.of_result (Resopt.Pipeline.run ~schedule nest) in
  Alcotest.(check int) "nothing hoisted" 0 (List.length p.Resopt.Phases.hoisted)

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
(* LU workload                                                         *)
(* ------------------------------------------------------------------ *)

let test_lu_macro_comms () =
  let w = Resopt.Workloads.find "lu" in
  let r = Resopt.Pipeline.run ~schedule:w.Resopt.Workloads.schedule w.Resopt.Workloads.nest in
  let s = Resopt.Pipeline.summary r in
  (* pivot row and column feed macro-communications, the update stays
     local: the paper's motivating claim for dense kernels *)
  Alcotest.(check int) "A updates local" 2
    (s.Resopt.Commplan.local + s.Resopt.Commplan.translations);
  Alcotest.(check int) "two macro residuals" 2
    (s.Resopt.Commplan.broadcasts + s.Resopt.Commplan.reductions
   + s.Resopt.Commplan.scatters + s.Resopt.Commplan.gathers);
  Alcotest.(check bool) "validated" true (Resopt.Validate.is_valid r)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "pipeline"
    [
      ( "example1",
        [
          Alcotest.test_case "summary matches the paper" `Quick
            test_example1_summary;
          Alcotest.test_case "F6 partial broadcast" `Quick test_example1_f6_broadcast;
          Alcotest.test_case "F3 two-factor decomposition" `Quick
            test_example1_f3_decomposed;
          Alcotest.test_case "F9 footnote broadcast" `Quick test_example1_f9_footnote;
          Alcotest.test_case "rotation applied" `Quick
            test_example1_rotation_applied;
        ] );
      ( "example5",
        [
          Alcotest.test_case "ours 0 vs platonoff broadcasts" `Quick
            test_example5_comparison;
          Alcotest.test_case "platonoff keeps the broadcast visible" `Quick
            test_platonoff_respects_constraint;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "matmul reductions" `Quick test_matmul_reductions;
          Alcotest.test_case "gauss broadcasts" `Quick test_gauss_broadcasts;
          Alcotest.test_case "stencil translations" `Quick test_stencil_translations;
          Alcotest.test_case "all workloads run" `Quick test_all_workloads_run;
          Alcotest.test_case "lookup" `Quick test_workloads_lookup;
        ] );
      ( "feautrier",
        [ Alcotest.test_case "ablation" `Quick test_feautrier_ablation ] );
      ( "baseline",
        Alcotest.test_case "of_pipeline = run (curated)" `Quick test_baseline_curated
        :: baseline_props );
      ( "decomposed",
        [ Alcotest.test_case "early stop = all phases" `Quick test_decomposed_diff ] );
      ( "row-fold",
        [
          Alcotest.test_case "sweep rows = separate calls" `Quick test_row_fold;
          Alcotest.test_case "one fold, several specs" `Quick test_row_fold_specs;
          Alcotest.test_case "served mapping block" `Quick test_row_fold_answer;
        ] );
      ("properties", pipeline_props);
      ("sweep", [ Alcotest.test_case "full sweep" `Quick test_sweep ]);
      ("seidel", [ Alcotest.test_case "workload" `Quick test_seidel_workload ]);
      ( "phases",
        [
          Alcotest.test_case "example 5" `Quick test_phases_example5;
          Alcotest.test_case "hoisting" `Quick test_phases_hoisting;
          Alcotest.test_case "sequential schedule" `Quick
            test_phases_sequential_schedule;
        ] );
      ( "autodim",
        [
          Alcotest.test_case "matmul trade-off" `Quick test_autodim_matmul;
          Alcotest.test_case "best choice" `Quick test_autodim_best;
        ] );
      ("lu", [ Alcotest.test_case "macro residuals" `Quick test_lu_macro_comms ]);
    ]
