(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (see EXPERIMENTS.md for the paper-vs-measured
   record) plus Bechamel micro-benchmarks of the analyses themselves.

     dune exec bench/main.exe                   # everything
     dune exec bench/main.exe -- table1         # one experiment
     dune exec bench/main.exe -- --jobs 4 sweep # fan over 4 domains
*)

open Linalg

(* --jobs N (the knob applies to the experiments that fan out work:
   sweep and the §4.2 searches; parbench sets its own jobs levels) *)
let cli_jobs : int option ref = ref None

(* pool shared by the search/similarity experiments when --jobs is
   given; a Par.Shared pool, alive for the whole bench run *)
let search_pool : Par.Pool.t option ref = ref None

(* --record: append one Benchstore record per headline metric to the
   history file (default BENCH_HISTORY.jsonl), for bench-compare.
   Experiments call [record] unconditionally; without the flag it is a
   no-op. *)
let record_enabled = ref false
let history_file = ref "BENCH_HISTORY.jsonl"
let git_rev = ref ""
let run_timestamp = ref ""
let cur_experiment = ref ""
let recorded : Obs.Benchstore.record list ref = ref [] (* reverse *)

let record ?jobs ?faults metric value =
  if !record_enabled then
    recorded :=
      Obs.Benchstore.make ?jobs ?faults ~git_rev:!git_rev
        ~timestamp:!run_timestamp ~experiment:!cur_experiment ~metric value
      :: !recorded

let iso_utc t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let section title =
  Format.printf "@.=============================================================@.";
  Format.printf "== %s@." title;
  Format.printf "=============================================================@."

(* ------------------------------------------------------------------ *)
(* Table 1: data movements on the CM-5 model                           *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1 - execution times for data movements (CM-5 model)";
  let m = Machine.Models.cm5 () in
  let bytes = 256 in
  let red = Machine.Models.reduce_time m ~bytes in
  let bc = Machine.Models.broadcast_time m ~bytes in
  let tr = Machine.Models.translation_time m ~bytes in
  let gen = Machine.Models.general_time m ~bytes in
  Format.printf "%-22s %10s %10s@." "movement" "time" "ratio";
  let row name t = Format.printf "%-22s %10.1f %10.2f@." name t (t /. red) in
  row "reduction" red;
  row "broadcast" bc;
  row "translation" tr;
  row "general communication" gen;
  Format.printf "paper's shape: reduction ~ broadcast << translation << general;@.";
  Format.printf "general/broadcast = %.1f (paper: an order of magnitude)@."
    (gen /. bc);
  record "reduction_time" red;
  record "broadcast_time" bc;
  record "translation_time" tr;
  record "general_time" gen;
  record "general_over_broadcast_ratio" (gen /. bc)

(* ------------------------------------------------------------------ *)
(* Table 2: decomposing versus not decomposing on the Paragon          *)
(* ------------------------------------------------------------------ *)

let paper_t = Mat.of_lists [ [ 1; 2 ]; [ 3; 7 ] ]
let paper_l = Mat.of_lists [ [ 1; 0 ]; [ 3; 1 ] ]
let paper_u = Mat.of_lists [ [ 1; 2 ]; [ 0; 1 ] ]

let table2 () =
  section "Table 2 - decomposing T = L.U on the Paragon model";
  Format.printf "T = %a = %a . %a (found: %a)@." Mat.pp_flat paper_t Mat.pp_flat
    paper_l Mat.pp_flat paper_u Decomp.Decompose.pp_factors
    (Option.get (Decomp.Decompose.min_factors paper_t));
  let par = Machine.Models.paragon () in
  let vgrid = [| 64; 32 |] in
  let layout = Distrib.Layout.all_cyclic 2 in
  let direct =
    Distrib.Foldsim.time ~coalesce:false par ~layout ~vgrid ~flow:paper_t ()
  in
  let phases =
    Distrib.Foldsim.decomposed_time par ~layout ~vgrid ~factors:[ paper_l; paper_u ] ()
  in
  match phases with
  | [ u_phase; l_phase ] ->
    let tl = l_phase.Machine.Netsim.time and tu = u_phase.Machine.Netsim.time in
    let td = direct.Machine.Netsim.time in
    Format.printf "%-18s %10s %12s@." "communication" "time" "ratio (L=1)";
    let row name t = Format.printf "%-18s %10.1f %12.2f@." name t (t /. tl) in
    row "not decomposed" td;
    row "L" tl;
    row "U" tu;
    row "L.U" (tl +. tu);
    Format.printf "direct / decomposed = %.2f (paper: decomposing wins)@."
      (td /. (tl +. tu));
    record "direct_time" td;
    record "l_time" tl;
    record "u_time" tu;
    record "lu_time" (tl +. tu);
    record "direct_over_decomposed_ratio" (td /. (tl +. tu))
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Figures 1-3: access graph and branching of Example 1                *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "Figure 1 - access graph of Example 1 (matrix weights)";
  let nest = Nestir.Paper_examples.example1 () in
  let g = Alignment.Access_graph.build ~m:2 nest in
  List.iter
    (fun e ->
      if e.Alignment.Access_graph.forward then
        Format.printf "  %s -> %s   weight@.%a@."
          (Alignment.Access_graph.vertex_name e.Alignment.Access_graph.e_src)
          (Alignment.Access_graph.vertex_name e.Alignment.Access_graph.e_dst)
          Ratmat.pp e.Alignment.Access_graph.weight)
    g.Alignment.Access_graph.edges;
  List.iter
    (fun (s, l) -> Format.printf "  excluded (rank-deficient): %s in %s@." l s)
    g.Alignment.Access_graph.excluded

let fig2 () =
  section "Figure 2 - access graph with integer (volume) weights";
  let nest = Nestir.Paper_examples.example1 () in
  let g = Alignment.Access_graph.build ~m:2 nest in
  List.iter
    (fun e ->
      if e.Alignment.Access_graph.forward then
        Format.printf "  %s -> %s   [%s, volume %d]@."
          (Alignment.Access_graph.vertex_name e.Alignment.Access_graph.e_src)
          (Alignment.Access_graph.vertex_name e.Alignment.Access_graph.e_dst)
          e.Alignment.Access_graph.label e.Alignment.Access_graph.volume)
    g.Alignment.Access_graph.edges

let fig3 () =
  section "Figure 3 - a maximum branching";
  let nest = Nestir.Paper_examples.example1 () in
  let t = Alignment.Alloc.run ~m:2 nest in
  Format.printf "branching edges:@.";
  List.iter
    (fun e ->
      Format.printf "  %s -> %s   [%s]@."
        (Alignment.Access_graph.vertex_name e.Alignment.Access_graph.e_src)
        (Alignment.Access_graph.vertex_name e.Alignment.Access_graph.e_dst)
        e.Alignment.Access_graph.label)
    t.Alignment.Alloc.branching;
  Format.printf "added in step 1c:";
  List.iter
    (fun e -> Format.printf " %s" e.Alignment.Access_graph.label)
    t.Alignment.Alloc.added;
  Format.printf "@.%d of 8 in-graph accesses local; residual:"
    (List.length t.Alignment.Alloc.local);
  List.iter (fun (s, l) -> Format.printf " %s/%s" s l) t.Alignment.Alloc.residual;
  Format.printf "@.both volume-3 edges zeroed out: %b (paper: yes)@."
    (Alignment.Alloc.is_local t ~stmt:"S2" ~label:"F5"
    && Alignment.Alloc.is_local t ~stmt:"S3" ~label:"F7")

(* ------------------------------------------------------------------ *)
(* Figures 4-5: total and partial broadcasts                           *)
(* ------------------------------------------------------------------ *)

let draw_broadcast ~title ~grid:(p, q) ~src ~dests =
  Format.printf "%s@." title;
  for y = q - 1 downto 0 do
    Format.printf "   ";
    for x = 0 to p - 1 do
      if (x, y) = src then Format.printf " S"
      else if List.mem (x, y) dests then Format.printf " *"
      else Format.printf " ."
    done;
    Format.printf "@."
  done

let fig45 () =
  section "Figures 4-5 - complete and partial broadcast (m = 2)";
  let all = List.concat (List.init 4 (fun x -> List.init 4 (fun y -> (x, y)))) in
  draw_broadcast ~title:"complete broadcast (p = 2):" ~grid:(4, 4) ~src:(1, 1)
    ~dests:all;
  draw_broadcast ~title:"partial broadcast along one axis (p = 1):" ~grid:(4, 4)
    ~src:(1, 1)
    ~dests:(List.init 4 (fun x -> (x, 1)));
  let f6 = Nestir.Paper_examples.example1_f 6 in
  let ms = Mat.of_lists [ [ 1; 1; 0 ]; [ 0; 1; 0 ] ] in
  (match Macrocomm.Broadcast.detect ~theta:(Mat.zero 1 3) ~f:f6 ~ms with
  | Some info ->
    Format.printf "example 1, F6 before rotation: %a@." Macrocomm.Broadcast.pp info
  | None -> ());
  let v = Option.get (Macrocomm.Axis.aligning_matrix (Mat.of_col [| 1; -1 |])) in
  match Macrocomm.Broadcast.detect ~theta:(Mat.zero 1 3) ~f:f6 ~ms:(Mat.mul v ms) with
  | Some info ->
    Format.printf "after rotation by %a: %a@." Mat.pp_flat v Macrocomm.Broadcast.pp
      info
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Figures 6-7: the grouped partition                                  *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  section "Figure 6 - grouped partition of one row (k = 3, 12 virtual, P = 4)";
  Distrib.Grouped.figure6 Format.std_formatter ~k:3 ~nv:12 ~np:4

let fig7 () =
  section "Figure 7 - 2-D grouped partition for T = L.U";
  Distrib.Grouped.figure7 Format.std_formatter ~vgrid:(10, 6) ~pgrid:(5, 3) ~ku:2
    ~kl:3

(* ------------------------------------------------------------------ *)
(* Figure 8: distributions versus the grouped partition                *)
(* ------------------------------------------------------------------ *)

let fig8_config name par =
  Format.printf "--- %s ---@." name;
  Format.printf "%2s %12s %14s %14s %14s@." "k" "grouped" "CYCLIC/grp" "BLOCK/grp"
    "CYCLIC(8)/grp";
  let vgrid = [| 840; 8 |] in
  List.iter
    (fun k ->
      let uk = Mat.of_lists [ [ 1; k ]; [ 0; 1 ] ] in
      let t scheme =
        (Distrib.Foldsim.time par
           ~layout:[| scheme; Distrib.Layout.Block |]
           ~vgrid ~flow:uk ())
          .Machine.Netsim.time
      in
      let tg = t (Distrib.Layout.Grouped k) in
      if tg = 0.0 then
        Format.printf "%2d %12s %14s %14s %14s@." k "(all local)" "-" "-" "-"
      else
        Format.printf "%2d %12.1f %14.2f %14.2f %14.2f@." k tg
          (t Distrib.Layout.Cyclic /. tg)
          (t Distrib.Layout.Block /. tg)
          (t (Distrib.Layout.Cyclic_block 8) /. tg))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let fig8 () =
  section "Figure 8 - U_k under standard distributions over grouped partition";
  fig8_config "(a) 8x4 mesh" (Machine.Models.paragon ~p:8 ~q:4 ());
  fig8_config "(b) 16x4 mesh" (Machine.Models.paragon ~p:16 ~q:4 ());
  fig8_config "(c) 16x8 mesh" (Machine.Models.paragon ~p:16 ~q:8 ());
  (* adoption cost: switching an existing BLOCK layout to grouped *)
  Format.printf "@.redistribution break-even (BLOCK -> GROUPED(k), 16x4 mesh):@.";
  let par = Machine.Models.paragon ~p:16 ~q:4 () in
  List.iter
    (fun k ->
      let uk = Mat.of_lists [ [ 1; k ]; [ 0; 1 ] ] in
      match
        Distrib.Redistribute.break_even par ~vgrid:[| 840; 8 |]
          ~from_layout:[| Distrib.Layout.Block; Distrib.Layout.Block |]
          ~to_layout:[| Distrib.Layout.Grouped k; Distrib.Layout.Block |]
          ~flow:uk
      with
      | Some n -> Format.printf "  k=%d: pays off after %d repetitions@." k n
      | None -> Format.printf "  k=%d: grouped never wins here@." k)
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Example 1 end-to-end                                                *)
(* ------------------------------------------------------------------ *)

let example1 () =
  section "Example 1 - the complete walkthrough (paper 2-3)";
  let nest = Nestir.Paper_examples.example1 () in
  let r = Resopt.Pipeline.run ~m:2 nest in
  Format.printf "%a@." Resopt.Pipeline.pp r;
  let s = Resopt.Pipeline.summary r in
  Format.printf
    "tally: %d local (incl. constant shifts), %d broadcasts, %d decomposed, %d general@."
    (s.Resopt.Commplan.local + s.Resopt.Commplan.translations)
    s.Resopt.Commplan.broadcasts s.Resopt.Commplan.decomposed
    s.Resopt.Commplan.general

(* ------------------------------------------------------------------ *)
(* 4.2 exhaustive search                                               *)
(* ------------------------------------------------------------------ *)

let search () =
  section "Section 4.2 - exhaustive verification: <= 4 elementary factors";
  List.iter
    (fun bound ->
      let h = Decomp.Search.factor_histogram ?pool:!search_pool ~bound () in
      Format.printf "%a@." Decomp.Search.pp h)
    [ 3; 6; 10 ]

let similarity () =
  section "Section 4.2.2 - similarity to a two-factor product";
  List.iter
    (fun (bound, conj_bound) ->
      let total, suff, srch =
        Decomp.Search.similarity_histogram ?pool:!search_pool ~bound ~conj_bound ()
      in
      Format.printf
        "|entries| <= %d (conjugators <= %d): %d matrices, %d by sufficient condition, %d by search@."
        bound conj_bound total suff srch)
    [ (2, 2); (3, 3) ];
  let t = Mat.of_lists [ [ -1; -5 ]; [ 0; -1 ] ] in
  Format.printf
    "negative witness %a (trace %d, discriminant %d): sufficient %b, search(4) %b@."
    Mat.pp_flat t (Mat.trace t)
    (Decomp.Similarity.discriminant t)
    (Decomp.Similarity.sufficient t <> None)
    (Decomp.Similarity.search ~bound:4 t <> None)

(* ------------------------------------------------------------------ *)
(* 7.2 Platonoff comparison                                            *)
(* ------------------------------------------------------------------ *)

let platonoff () =
  section "Section 7.2 - heuristic ordering: ours vs Platonoff (Example 5)";
  let w = Resopt.Workloads.find "example5" in
  let nest = w.Resopt.Workloads.nest and schedule = w.Resopt.Workloads.schedule in
  let ours = Resopt.Pipeline.run ~m:2 ~schedule nest in
  let plat = Resopt.Platonoff.run ~m:2 ~schedule nest in
  Format.printf "%-28s %14s@." "strategy" "non-local";
  Format.printf "%-28s %14d@." "ours (zero out first)" (Resopt.Pipeline.non_local ours);
  Format.printf "%-28s %14d  (n broadcasts at runtime)@." "Platonoff (macro first)"
    (Resopt.Platonoff.non_local plat);
  Format.printf "reserved by Platonoff:";
  List.iter (fun (s, l) -> Format.printf " %s/%s" s l) plat.Resopt.Platonoff.reserved;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "Ablations";
  Format.printf "step 2 of the heuristic (macro + decomposition) on vs off:@.";
  Format.printf "%-12s %8s | %8s %8s %8s | %12s@." "workload" "locals" "macros"
    "decomp" "general" "general(off)";
  List.iter
    (fun (w : Resopt.Workloads.t) ->
      let nest = w.Resopt.Workloads.nest and schedule = w.Resopt.Workloads.schedule in
      let on = Resopt.Pipeline.summary (Resopt.Pipeline.run ~schedule nest) in
      let off = Resopt.Feautrier.summary (Resopt.Feautrier.run ~schedule nest) in
      Format.printf "%-12s %8d | %8d %8d %8d | %12d@." w.Resopt.Workloads.name
        (on.Resopt.Commplan.local + on.Resopt.Commplan.translations)
        (on.Resopt.Commplan.reductions + on.Resopt.Commplan.broadcasts
        + on.Resopt.Commplan.scatters + on.Resopt.Commplan.gathers)
        on.Resopt.Commplan.decomposed on.Resopt.Commplan.general
        off.Resopt.Commplan.general)
    (Resopt.Workloads.all ());
  Format.printf "@.similarity vs direct decomposition (T with c | a-1, a <> 1):@.";
  let t = Mat.of_lists [ [ 3; 4 ]; [ 2; 3 ] ] in
  (match Decomp.Decompose.min_factors t with
  | Some fs ->
    Format.printf "  direct: %d factors (%a)@." (List.length fs)
      Decomp.Decompose.pp_factors fs
  | None -> ());
  (match Decomp.Similarity.sufficient t with
  | Some r ->
    Format.printf "  after conjugation by %a: %d factors (%a)@." Mat.pp_flat
      r.Decomp.Similarity.conjugator
      (List.length r.Decomp.Similarity.factors)
      Decomp.Decompose.pp_factors r.Decomp.Similarity.factors
  | None -> ());
  (* 4. axis-alignment rotation on/off *)
  Format.printf "@.axis-alignment rotation (step 2a) on vs off, example 1:@.";
  let nest = Nestir.Paper_examples.example1 () in
  let count_aligned r =
    List.length
      (List.filter
         (fun (e : Resopt.Commplan.entry) ->
           match e.Resopt.Commplan.classification with
           | Resopt.Commplan.Broadcast i -> i.Macrocomm.Broadcast.axis_aligned
           | _ -> false)
         r.Resopt.Pipeline.plan)
  in
  let with_rot = Resopt.Pipeline.run ~m:2 nest in
  let without = Resopt.Pipeline.run ~m:2 ~axis_align:false nest in
  Format.printf "  axis-aligned broadcasts: %d (on) vs %d (off)@."
    (count_aligned with_rot) (count_aligned without);
  Format.printf "@.grouped partition with mismatched k (U_4 communication):@.";
  let par = Machine.Models.paragon ~p:16 ~q:4 () in
  let u4 = Mat.of_lists [ [ 1; 4 ]; [ 0; 1 ] ] in
  List.iter
    (fun k ->
      let t =
        (Distrib.Foldsim.time par
           ~layout:[| Distrib.Layout.Grouped k; Distrib.Layout.Block |]
           ~vgrid:[| 840; 8 |] ~flow:u4 ())
          .Machine.Netsim.time
      in
      Format.printf "  GROUPED(%d): %.1f@." k t)
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Plan cost: the headline comparison                                  *)
(* ------------------------------------------------------------------ *)

let plancost () =
  section "Plan cost - two-step heuristic vs step 1 only, per machine model";
  let models =
    [ Machine.Models.cm5 (); Machine.Models.paragon (); Machine.Models.t3d () ]
  in
  List.iter
    (fun model ->
      Format.printf "--- %s model ---@." model.Machine.Models.name;
      Format.printf "%-12s %14s %14s %10s@." "workload" "optimized" "step-1 only"
        "gain";
      List.iter
        (fun (w : Resopt.Workloads.t) ->
          let nest = w.Resopt.Workloads.nest
          and schedule = w.Resopt.Workloads.schedule in
          let on = Resopt.Pipeline.run ~schedule nest in
          let off = Resopt.Feautrier.run ~schedule nest in
          let c_on =
            (Resopt.Cost.of_plan model on.Resopt.Pipeline.plan).Resopt.Cost.total
          in
          let c_off =
            (Resopt.Cost.of_plan model off.Resopt.Feautrier.plan).Resopt.Cost.total
          in
          Format.printf "%-12s %14.1f %14.1f %9.2fx@." w.Resopt.Workloads.name c_on
            c_off
            (if c_on > 0.0 then c_off /. c_on else Float.infinity))
        (Resopt.Workloads.all ()))
    models

(* ------------------------------------------------------------------ *)
(* Sweep: the full summary table                                       *)
(* ------------------------------------------------------------------ *)

let sweep () =
  section "Sweep - every workload x machine model, optimized vs baseline";
  let rows = Resopt.Sweep.run ?jobs:!cli_jobs () in
  Resopt.Sweep.pp_table Format.std_formatter rows;
  List.iter
    (fun (metric, v) -> record ?jobs:!cli_jobs metric v)
    (Resopt.Sweep.metrics rows)

(* ------------------------------------------------------------------ *)
(* Parallel runtime: sequential-vs-parallel sweep speedup              *)
(* ------------------------------------------------------------------ *)

(* Timing fields are per-run wall clock; blank them before comparing
   rows across jobs levels. *)
let strip_rows rows =
  List.map
    (fun (r : Resopt.Sweep.row) ->
      { r with Resopt.Sweep.time_ms = 0.0; cost_ms = 0.0 })
    rows

let parbench () =
  section "Parallel sweep - cells/sec and speedup over the Par runtime";
  let ms = [ 1; 2; 3 ] in
  let measure jobs =
    let t0 = Unix.gettimeofday () in
    let rows = Resopt.Sweep.run ~jobs ~ms () in
    (rows, Unix.gettimeofday () -. t0)
  in
  (* warm-up so the first measurement doesn't pay one-time costs *)
  ignore (Resopt.Sweep.run ~ms:[ 2 ] ());
  let rows1, t1 = measure 1 in
  let cells =
    List.length
      (List.sort_uniq compare
         (List.map (fun (r : Resopt.Sweep.row) -> (r.Resopt.Sweep.workload, r.Resopt.Sweep.m)) rows1))
  in
  let runs =
    (1, rows1, t1)
    :: List.map (fun jobs -> let rows, t = measure jobs in (jobs, rows, t)) [ 2; 4 ]
  in
  Format.printf "%5s %10s %12s %9s %15s@." "jobs" "seconds" "cells/sec" "speedup"
    "rows identical";
  let entries =
    List.map
      (fun (jobs, rows, t) ->
        let identical = strip_rows rows = strip_rows rows1 in
        let cps = if t > 0.0 then float_of_int cells /. t else 0.0 in
        let speedup = if t > 0.0 then t1 /. t else 0.0 in
        Format.printf "%5d %10.3f %12.1f %8.2fx %15b@." jobs t cps speedup identical;
        record ~jobs (Printf.sprintf "jobs%d.seconds" jobs) t;
        record ~jobs (Printf.sprintf "jobs%d.cells_per_sec" jobs) cps;
        record ~jobs (Printf.sprintf "jobs%d.speedup" jobs) speedup;
        Printf.sprintf
          "{\"jobs\":%d,\"seconds\":%.6f,\"cells_per_sec\":%.2f,\"speedup\":%.3f,\"rows_identical\":%b}"
          jobs t cps speedup identical)
      runs
  in
  (* recommended_domains is measured, not guessed: the jobs level that
     actually delivered the most cells/sec on this machine *)
  let recommended =
    let best (bj, bc) (jobs, _, t) =
      let cps = if t > 0.0 then float_of_int cells /. t else 0.0 in
      if cps > bc then (jobs, cps) else (bj, bc)
    in
    fst (List.fold_left best (1, 0.0) runs)
  in
  record "recommended_domains" (float_of_int recommended);
  let json =
    Printf.sprintf
      "{\"cells\":%d,\"rows\":%d,\"ms\":[1,2,3],\"recommended_domains\":%d,\"runs\":[%s]}"
      cells (List.length rows1) recommended
      (String.concat "," entries)
  in
  Obs.write_file "BENCH_par.json" json;
  Format.eprintf "parallel sweep snapshot written to BENCH_par.json@."

(* ------------------------------------------------------------------ *)
(* Event-driven cross-validation of Table 2                            *)
(* ------------------------------------------------------------------ *)

let eventsim () =
  section "Cross-validation - closed-form model vs store-and-forward events";
  let par = Machine.Models.paragon () in
  let topo = par.Machine.Models.topo in
  let vgrid = [| 64; 32 |] in
  let layout = Distrib.Layout.all_cyclic 2 in
  let traffic flow =
    Resopt.Residual.traffic (Resopt.Residual.make ~vgrid ~bytes:8 topo [ flow ])
  in
  let events ~coalesce flow =
    (Machine.Eventsim.run topo Machine.Eventsim.default_params
       (Machine.Netsim.volume ~coalesce topo (traffic flow)))
      .Machine.Eventsim.cycles
  in
  let closed_direct =
    (Distrib.Foldsim.time ~coalesce:false par ~layout ~vgrid ~flow:paper_t ())
      .Machine.Netsim.time
  in
  let closed_lu =
    Distrib.Foldsim.total_time
      (Distrib.Foldsim.decomposed_time par ~layout ~vgrid ~factors:[ paper_l; paper_u ] ())
  in
  let ev_direct = events ~coalesce:false paper_t in
  let ev_lu =
    List.fold_left (fun acc f -> acc + events ~coalesce:true f) 0 [ paper_u; paper_l ]
  in
  Format.printf "%-22s %14s %14s@." "simulator" "direct" "decomposed";
  Format.printf "%-22s %14.1f %14.1f  (%.1fx)@." "closed-form (time)" closed_direct
    closed_lu (closed_direct /. closed_lu);
  Format.printf "%-22s %14d %14d  (%.1fx)@." "event-driven (cycles)" ev_direct ev_lu
    (float_of_int ev_direct /. float_of_int ev_lu);
  Format.printf "both rank the decomposed sequence first: %b@."
    (closed_lu < closed_direct && ev_lu < ev_direct);
  record "closed_direct_time" closed_direct;
  record "closed_decomposed_time" closed_lu;
  record "ev_direct_cycles" (float_of_int ev_direct);
  record "ev_decomposed_cycles" (float_of_int ev_lu);
  Format.printf "@.sender-load heatmap of the direct pattern (8x4 mesh):@.%s"
    (Machine.Trace.load_heatmap topo (traffic paper_t))

(* ------------------------------------------------------------------ *)
(* Resilience: does decomposing still win on an imperfect machine?     *)
(* ------------------------------------------------------------------ *)

let faultbench () =
  section "Fault injection - direct vs decomposed under flaky links (Paragon)";
  let par = Machine.Models.paragon () in
  let topo = par.Machine.Models.topo in
  let vgrid = [| 64; 32 |] in
  let layout = Distrib.Layout.all_cyclic 2 in
  let events ~faults ~coalesce flow =
    Machine.Eventsim.run ~faults topo Machine.Eventsim.default_params
      (Machine.Netsim.volume ~coalesce topo
         (Resopt.Residual.traffic (Resopt.Residual.make ~vgrid ~bytes:8 topo [ flow ])))
  in
  let rates = [ 0.0; 0.01; 0.05; 0.1 ] in
  Format.printf "%-6s %10s %10s %7s %6s %5s %12s %12s %7s@." "rate" "ev direct"
    "ev decomp" "ratio" "retx" "drop" "cf direct" "cf decomp" "ratio";
  let entries =
    List.map
      (fun rate ->
        let faults =
          if rate = 0.0 then Machine.Fault.none
          else Machine.Fault.make ~seed:42 [ Machine.Fault.Flaky { link = None; prob = rate } ]
        in
        let ev_direct = events ~faults ~coalesce:false paper_t in
        let ev_lu = List.map (events ~faults ~coalesce:true) [ paper_u; paper_l ] in
        let lu_cycles =
          List.fold_left (fun acc (r : Machine.Eventsim.result) -> acc + r.Machine.Eventsim.cycles) 0 ev_lu
        in
        let retx =
          List.fold_left
            (fun acc (r : Machine.Eventsim.result) -> acc + r.Machine.Eventsim.retransmits)
            ev_direct.Machine.Eventsim.retransmits ev_lu
        in
        let dropped =
          List.fold_left
            (fun acc (r : Machine.Eventsim.result) -> acc + r.Machine.Eventsim.dropped)
            ev_direct.Machine.Eventsim.dropped ev_lu
        in
        let cf_direct =
          (Distrib.Foldsim.time ~coalesce:false ~faults par ~layout ~vgrid
             ~flow:paper_t ())
            .Machine.Netsim.time
        in
        let cf_lu =
          Distrib.Foldsim.total_time
            (Distrib.Foldsim.decomposed_time ~faults par ~layout ~vgrid
               ~factors:[ paper_l; paper_u ] ())
        in
        let ev_ratio =
          float_of_int ev_direct.Machine.Eventsim.cycles /. float_of_int lu_cycles
        in
        let cf_ratio = cf_direct /. cf_lu in
        Format.printf "%-6g %10d %10d %6.2fx %6d %5d %12.1f %12.1f %6.2fx@." rate
          ev_direct.Machine.Eventsim.cycles lu_cycles ev_ratio retx dropped
          cf_direct cf_lu cf_ratio;
        let frecord metric v =
          record ~faults:(Machine.Fault.label faults)
            (Printf.sprintf "rate%g.%s" rate metric)
            v
        in
        frecord "ev_direct_cycles" (float_of_int ev_direct.Machine.Eventsim.cycles);
        frecord "ev_decomposed_cycles" (float_of_int lu_cycles);
        frecord "ev_ratio" ev_ratio;
        frecord "retransmits" (float_of_int retx);
        frecord "dropped" (float_of_int dropped);
        frecord "cf_direct" cf_direct;
        frecord "cf_decomposed" cf_lu;
        frecord "cf_ratio" cf_ratio;
        Printf.sprintf
          "{\"rate\":%g,\"ev_direct_cycles\":%d,\"ev_decomposed_cycles\":%d,\"ev_ratio\":%.4f,\"retransmits\":%d,\"dropped\":%d,\"cf_direct\":%.2f,\"cf_decomposed\":%.2f,\"cf_ratio\":%.4f}"
          rate ev_direct.Machine.Eventsim.cycles lu_cycles ev_ratio retx dropped
          cf_direct cf_lu cf_ratio)
      rates
  in
  Format.printf
    "the decomposed sequence keeps its lead at every fault rate: the ratio is \
     the paper's Table 2 gain, re-measured on a flaky machine@.";
  let json =
    Printf.sprintf "{\"seed\":42,\"topology\":\"paragon-8x4\",\"rates\":[%s]}"
      (String.concat "," entries)
  in
  Obs.write_file "BENCH_fault.json" json;
  Format.eprintf "fault resilience snapshot written to BENCH_fault.json@."

(* ------------------------------------------------------------------ *)
(* Residual-traffic corpus: the rows of the next three tables          *)
(* ------------------------------------------------------------------ *)

(* The curated workloads and the first 200 nests of a seeded Gennest
   corpus (all-parallel schedules), each optimized once at m = 2.  An
   entry whose plan leaves no residual flow has nothing to map, route
   or bound: it is counted, but gets no row.  A pipeline failure
   aborts the bench and names the entry. *)
let residual_corpus =
  lazy
    (let workloads =
       Resopt.Workloads.all () @ Resopt.Workloads.generated ~seed:100003 ~count:200
     in
     let row (w : Resopt.Workloads.t) =
       let name = w.Resopt.Workloads.name in
       match Resopt.Residual.flows_of_workload ~m:2 w with
       | [] -> None
       | flows -> Some (name, flows)
       | exception e ->
         Format.eprintf "residual corpus: pipeline failed on %s: %s@." name
           (Printexc.to_string e);
         exit 1
     in
     (List.length workloads, List.filter_map row workloads))

(* [f name flows] over the corpus rows *)
let corpus_rows f =
  List.map (fun (name, flows) -> f name flows) (snd (Lazy.force residual_corpus))

(* the snapshot shape the three tables share: [head]'s fields, the
   corpus counts (entries drawn, entries without residual traffic),
   then the rows under [key] *)
let write_corpus_snapshot file head key items =
  let drawn, rows = Lazy.force residual_corpus in
  let counts =
    Printf.sprintf "{\"drawn\":%d,\"no_traffic\":%d}" drawn
      (drawn - List.length rows)
  in
  Obs.write_file file
    (Obs.Json.obj
       (head @ [ ("corpus", counts); (key, "[" ^ String.concat "," items ^ "]") ]));
  Format.eprintf "snapshot written to %s@." file

(* ------------------------------------------------------------------ *)
(* Process mapping: hop-bytes and link balance, identity vs searched   *)
(* ------------------------------------------------------------------ *)

(* Each corpus entry's residual traffic is collapsed to its volume
   graph on the Paragon mesh and placed three ways: the paper's fixed
   embedding (identity), the greedy-growing construction, and greedy +
   seeded hill climbing.  Hop-bytes is the mapping objective; the
   link-load Gini (over the closed-form byte loads, clean and at a 5%
   flaky rate) shows the balance effect on the wires.  Everything is
   closed-form or exhaustively deterministic, so the snapshot diffs
   clean across runs and feeds the bench-compare gate. *)
let mapbench () =
  section "Process mapping - hop-bytes and link balance (Paragon mesh)";
  let seed = 42 in
  let par = Machine.Models.paragon () in
  let topo = par.Machine.Models.topo in
  let kinds =
    [ (Mapping.Identity, "identity"); (Mapping.Greedy, "greedy"); (Mapping.Search, "search") ]
  in
  let rates = [ 0.0; 0.05 ] in
  let fields fmt l = Obs.Json.obj (List.map (fun (k, v) -> (k, fmt v)) l) in
  Format.printf "%-12s %10s %10s %10s %7s" "workload" "hb id" "hb greedy"
    "hb search" "gain";
  List.iter
    (fun rate ->
      List.iter
        (fun (_, kname) ->
          Format.printf " %9s"
            (Printf.sprintf "g%g:%s" (rate *. 100.0) (String.sub kname 0 2)))
        kinds)
    rates;
  Format.printf "@.";
  let ordered = ref true in
  let entries =
    corpus_rows (fun name flows ->
        let traffic = Option.get (Resopt.Residual.on_model ~bytes:8 par flows) in
        let vol = Resopt.Residual.volume_graph traffic in
        let perms =
          List.map
            (fun (k, kname) -> (kname, Mapping.compute (Mapping.spec ~seed k) topo vol))
            kinds
        in
        let hb = List.map (fun (k, p) -> (k, Mapping.hop_bytes topo vol p)) perms in
        let hb_id = List.assoc "identity" hb
        and hb_gr = List.assoc "greedy" hb
        and hb_se = List.assoc "search" hb in
        ordered := !ordered && hb_se <= hb_gr && hb_gr <= hb_id;
        let gini rate perm =
          let faults =
            if rate = 0.0 then Machine.Fault.none
            else
              Machine.Fault.make ~seed
                [ Machine.Fault.Flaky { link = None; prob = rate } ]
          in
          let loads =
            Machine.Netsim.link_loads ~faults topo
              (Resopt.Residual.traffic ~placement:perm traffic)
          in
          Obs.Telemetry.gini
            (Array.of_list (List.map (fun (_, l) -> float_of_int l) loads))
        in
        let ginis =
          List.map
            (fun rate ->
              ( Printf.sprintf "gini%g" (rate *. 100.0),
                List.map (fun (k, p) -> (k, gini rate p)) perms ))
            rates
        in
        Format.printf "%-12s %10d %10d %10d %6.2fx" name hb_id hb_gr hb_se
          (if hb_se > 0 then float_of_int hb_id /. float_of_int hb_se else 1.0);
        List.iter (fun (_, gs) -> List.iter (fun (_, g) -> Format.printf " %9.4f" g) gs) ginis;
        Format.printf "@.";
        List.iter
          (fun (k, h) ->
            record (Printf.sprintf "%s.hop_bytes.%s" name k) (float_of_int h))
          hb;
        List.iter
          (fun (r, gs) ->
            List.iter (fun (k, g) -> record (Printf.sprintf "%s.%s.%s" name r k) g) gs)
          ginis;
        Obs.Json.obj
          (("name", Obs.Json.str name)
          :: ("hop_bytes", fields string_of_int hb)
          :: List.map (fun (r, gs) -> (r, fields (Printf.sprintf "%.6f") gs)) ginis))
  in
  Format.printf
    "search <= greedy <= identity hop-bytes on every workload: %b@." !ordered;
  if not !ordered then begin
    Format.eprintf "mapbench: hop-bytes ordering violated@.";
    exit 1
  end;
  write_corpus_snapshot "BENCH_map.json"
    [ ("seed", string_of_int seed); ("topology", Obs.Json.str "paragon-8x4") ]
    "workloads" entries

(* ------------------------------------------------------------------ *)
(* Topology families: hop-bytes and simulated cycles per machine       *)
(* ------------------------------------------------------------------ *)

(* The corpus re-run across the pluggable topology families: the
   paper's torus plus a fat tree and a dragonfly in both routing
   modes.  Per (topology, workload): residual hop-bytes before and
   after placement search, and the event-simulated makespan of the
   searched placement's traffic.  Everything is closed-form or
   seed-deterministic, so BENCH_topo.json diffs clean and feeds the
   bench-compare gate — a routing or capacity regression on any family
   moves a pinned number. *)
let topobench () =
  section "Pluggable topologies - hop-bytes and simulated cycles";
  let seed = 42 in
  let topos =
    [
      Machine.Topology.make ~torus:true [| 8; 8 |];
      Machine.Topology.fat_tree ~levels:3 ~arity:4;
      Machine.Topology.dragonfly ~groups:4 ~routers:4 ~hosts:2 ();
      Machine.Topology.dragonfly ~routing:(Machine.Topology.Valiant seed)
        ~groups:4 ~routers:4 ~hosts:2 ();
    ]
  in
  Format.printf "%-28s %-12s %10s %10s %7s %9s@." "topology" "workload"
    "hb id" "hb search" "gain" "cycles";
  let blocks =
    List.map
      (fun topo ->
        let spec = Machine.Topology.to_string topo in
        let vgrid =
          [| 2 * Machine.Topology.dim topo 0; 2 * Machine.Topology.dim topo 1 |]
        in
        let n = Machine.Topology.size topo in
        let entries =
          corpus_rows (fun name flows ->
              let traffic = Resopt.Residual.make ~vgrid ~bytes:8 topo flows in
              let vol = Resopt.Residual.volume_graph traffic in
              let perm = Mapping.search ~seed topo vol in
              let hb_id = Mapping.hop_bytes topo vol (Mapping.identity n) in
              let hb_se = Mapping.hop_bytes topo vol perm in
              let ev =
                Machine.Eventsim.run topo Machine.Eventsim.default_params
                  (Machine.Netsim.volume ~coalesce:false topo
                     (Resopt.Residual.traffic ~placement:perm traffic))
              in
              let cycles = ev.Machine.Eventsim.cycles in
              Format.printf "%-28s %-12s %10d %10d %6.2fx %9d@." spec name hb_id
                hb_se
                (if hb_se > 0 then float_of_int hb_id /. float_of_int hb_se
                 else 1.0)
                cycles;
              record
                (Printf.sprintf "%s.%s.hop_bytes_search" spec name)
                (float_of_int hb_se);
              record (Printf.sprintf "%s.%s.cycles" spec name) (float_of_int cycles);
              Printf.sprintf
                "{\"name\":\"%s\",\"hop_bytes\":{\"identity\":%d,\"search\":%d},\"cycles\":%d}"
                name hb_id hb_se cycles)
        in
        Printf.sprintf "{\"spec\":\"%s\",\"hosts\":%d,\"workloads\":[%s]}" spec
          n
          (String.concat "," entries))
      topos
  in
  write_corpus_snapshot "BENCH_topo.json"
    [ ("seed", string_of_int seed) ]
    "topologies" blocks

(* ------------------------------------------------------------------ *)
(* Communication lower bounds: achieved vs optimal per topology        *)
(* ------------------------------------------------------------------ *)

(* Every corpus entry's residual traffic, bounded and priced on one
   machine per topology family: the cycle-packing volume bound
   (placement-independent bytes) next to the achieved nonlocal bytes,
   and the per-component transfer-time bound next to the fault-free
   Netsim price.  Everything is closed-form and deterministic, so
   BENCH_bounds.json diffs clean and feeds the bench-compare gate:
   the efficiency metrics are higher-better there (an efficiency drop
   is a regression), the bound/achieved bytes informational (a
   tightened bound must not read as one). *)
let boundsbench () =
  section "Lower bounds - achieved vs optimal across topology families";
  let topos =
    [
      ("torus8x8", Machine.Topology.make ~torus:true [| 8; 8 |]);
      ("fattree3x4", Machine.Topology.fat_tree ~levels:3 ~arity:4);
      ("dragonfly4x4x2", Machine.Topology.dragonfly ~groups:4 ~routers:4 ~hosts:2 ());
    ]
  in
  Format.printf "%-12s %-16s %10s %10s %6s %10s %10s %6s@." "workload"
    "topology" "bnd B" "ach B" "rank" "bnd t" "ach t" "eff";
  let violations = ref 0 in
  let blocks =
    corpus_rows (fun name flows ->
        let entries =
          List.map
            (fun (key, topo) ->
              let model = Machine.Models.of_topo topo in
              let e =
                Resopt.Efficiency.of_traffic model.Machine.Models.net
                  (Option.get (Resopt.Residual.on_model ~bytes:64 model flows))
              in
              let v = e.Resopt.Efficiency.volume in
              let tm = e.Resopt.Efficiency.time in
              let eff = tm.Bounds.efficiency in
              let ach = tm.Bounds.achieved.Machine.Netsim.time in
              if
                v.Bounds.bound_bytes > v.Bounds.achieved_bytes
                || eff <= 0.0 || eff > 1.0
              then begin
                incr violations;
                Format.eprintf "boundsbench: bound violated on %s/%s@." name key
              end;
              Format.printf "%-12s %-16s %10d %10d %6d %10.1f %10.1f %6.3f@." name
                key v.Bounds.bound_bytes v.Bounds.achieved_bytes
                v.Bounds.flow_rank tm.Bounds.bound_time ach eff;
              let rec_one metric value =
                record (Printf.sprintf "%s.%s.%s" name key metric) value
              in
              rec_one "bound_bytes" (float_of_int v.Bounds.bound_bytes);
              rec_one "achieved_bytes" (float_of_int v.Bounds.achieved_bytes);
              rec_one "bound_time" tm.Bounds.bound_time;
              rec_one "efficiency" eff;
              Printf.sprintf
                "{\"topo\":\"%s\",\"bound_bytes\":%d,\"achieved_bytes\":%d,\"flow_rank\":%d,\"bound_time\":%.4f,\"achieved_time\":%.4f,\"efficiency\":%.6f}"
                key v.Bounds.bound_bytes v.Bounds.achieved_bytes
                v.Bounds.flow_rank tm.Bounds.bound_time ach eff)
            topos
        in
        Printf.sprintf "{\"name\":\"%s\",\"topologies\":[%s]}" name
          (String.concat "," entries))
  in
  Format.printf
    "bound <= achieved and efficiency in (0, 1] everywhere: %b@."
    (!violations = 0);
  if !violations > 0 then exit 1;
  write_corpus_snapshot "BENCH_bounds.json"
    [ ("bytes", "64"); ("m", "2") ]
    "workloads" blocks

(* ------------------------------------------------------------------ *)
(* Optimization service: throughput and latency, cold vs warm          *)
(* ------------------------------------------------------------------ *)

let servebench () =
  section "resopt serve - throughput and latency (cold vs warm cache)";
  let seed = 42 and n = 80 and clients = 4 in
  (* in-process server on an ephemeral port; jobs 2 exercises the
     Par fan-out path of the solver *)
  let cfg =
    {
      (Serve.Server.default_config (Serve.Wire.Tcp ("127.0.0.1", 0))) with
      Serve.Server.jobs = 2;
    }
  in
  let server = Serve.Server.start cfg in
  let addr = Serve.Server.address server in
  let requests = Serve.Loadgen.mix ~seed ~n () in
  (* correctness (byte-identity to the offline CLI) is the test
     suite's and the CI soak gate's job; here the main thread must not
     solve while the server's solver thread owns the ambient state, so
     no --verify — just the robustness floor: every request answered ok *)
  let phase label =
    let s = Serve.Loadgen.run ~addr ~clients ~requests ~seed () in
    if s.Serve.Loadgen.ok <> s.Serve.Loadgen.sent then begin
      Format.eprintf
        "servebench (%s): %d of %d requests not ok (%d shed, %d timeout, %d errors)@."
        label
        (s.Serve.Loadgen.sent - s.Serve.Loadgen.ok)
        s.Serve.Loadgen.sent s.Serve.Loadgen.shed s.Serve.Loadgen.timeout
        s.Serve.Loadgen.errors;
      exit 1
    end;
    Format.printf
      "%-6s %4d req  %3d clients  %8.1f qps  p50 %6.2fms  p95 %6.2fms  p99 %6.2fms@."
      label s.Serve.Loadgen.sent clients s.Serve.Loadgen.achieved_qps
      s.Serve.Loadgen.p50_ms s.Serve.Loadgen.p95_ms s.Serve.Loadgen.p99_ms;
    record (label ^ "_qps") s.Serve.Loadgen.achieved_qps;
    record (label ^ "_p50_ms") s.Serve.Loadgen.p50_ms;
    record (label ^ "_p99_ms") s.Serve.Loadgen.p99_ms;
    s
  in
  let cold = phase "cold" in
  let warm = phase "warm" in
  Serve.Server.stop server;
  Serve.Server.wait server;
  Format.printf "warm/cold p50: %.2fx@."
    (if warm.Serve.Loadgen.p50_ms > 0.0 then
       cold.Serve.Loadgen.p50_ms /. warm.Serve.Loadgen.p50_ms
     else 1.0);
  let run_json label (s : Serve.Loadgen.summary) =
    Printf.sprintf
      "{\"phase\":\"%s\",\"sent\":%d,\"ok\":%d,\"shed\":%d,\"timeout\":%d,\
       \"errors\":%d,\"qps\":%.3f,\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f}"
      label s.Serve.Loadgen.sent s.Serve.Loadgen.ok s.Serve.Loadgen.shed
      s.Serve.Loadgen.timeout s.Serve.Loadgen.errors
      s.Serve.Loadgen.achieved_qps s.Serve.Loadgen.p50_ms
      s.Serve.Loadgen.p95_ms s.Serve.Loadgen.p99_ms
  in
  let json =
    Printf.sprintf
      "{\"seed\":%d,\"requests\":%d,\"clients\":%d,\"jobs\":%d,\"runs\":[%s,%s]}"
      seed n clients cfg.Serve.Server.jobs (run_json "cold" cold)
      (run_json "warm" warm)
  in
  Obs.write_file "BENCH_serve.json" json;
  Format.eprintf "service snapshot written to BENCH_serve.json@."

(* ------------------------------------------------------------------ *)
(* End-to-end program time                                             *)
(* ------------------------------------------------------------------ *)

let progtime () =
  section "Program time - compute + per-timestep communication (CM-5 model)";
  let model = Machine.Models.cm5 () in
  Format.printf "%-12s %s@." "workload" "breakdown";
  List.iter
    (fun (w : Resopt.Workloads.t) ->
      let r = Resopt.Pipeline.run ~schedule:w.Resopt.Workloads.schedule w.Resopt.Workloads.nest in
      Format.printf "%-12s %a@." w.Resopt.Workloads.name Resopt.Progtime.pp
        (Resopt.Progtime.of_pipeline ~model r))
    (Resopt.Workloads.all ());
  Format.printf "@.example 5, ours vs Platonoff (the whole point of §7.2):@.";
  let w = Resopt.Workloads.find "example5" in
  let ours = Resopt.Pipeline.run ~schedule:w.Resopt.Workloads.schedule w.Resopt.Workloads.nest in
  let plat = Resopt.Platonoff.run ~schedule:w.Resopt.Workloads.schedule w.Resopt.Workloads.nest in
  let t_ours = (Resopt.Progtime.of_pipeline ~model ours).Resopt.Progtime.total in
  let t_plat = (Resopt.Progtime.of_platonoff ~model plat).Resopt.Progtime.total in
  Format.printf "  ours %.1f vs platonoff %.1f  (%.1fx)@." t_ours t_plat
    (t_plat /. t_ours)

(* ------------------------------------------------------------------ *)
(* Grid-dimension choice (the paper's §1 trade-off)                    *)
(* ------------------------------------------------------------------ *)

let autodim () =
  section "Grid dimension - the larger m, the more residual cost (paper §1)";
  List.iter
    (fun (w : Resopt.Workloads.t) ->
      Format.printf "--- %s ---@." w.Resopt.Workloads.name;
      Resopt.Autodim.pp Format.std_formatter
        (Resopt.Autodim.evaluate w.Resopt.Workloads.nest);
      (match Resopt.Autodim.evaluate w.Resopt.Workloads.nest with
      | [] -> ()
      | _ ->
        Format.printf "cheapest: m = %d@."
          (Resopt.Autodim.best w.Resopt.Workloads.nest)))
    (List.filter
       (fun (w : Resopt.Workloads.t) ->
         List.mem w.Resopt.Workloads.name [ "matmul"; "example1"; "example5" ])
       (Resopt.Workloads.all ()))

(* ------------------------------------------------------------------ *)
(* Heuristic optimality                                                *)
(* ------------------------------------------------------------------ *)

let optimality () =
  section "Step 1 heuristic vs the exhaustive optimum";
  Format.printf "%-12s %10s %10s@." "workload" "heuristic" "optimal";
  List.iter
    (fun (w : Resopt.Workloads.t) ->
      match Alignment.Alignopt.heuristic_gap ~m:2 w.Resopt.Workloads.nest with
      | h, o -> Format.printf "%-12s %10d %10d%s@." w.Resopt.Workloads.name h o
                  (if h = o then "" else "   <-- gap")
      | exception Invalid_argument _ ->
        Format.printf "%-12s %10s@." w.Resopt.Workloads.name "(too large)")
    (Resopt.Workloads.all ())

(* ------------------------------------------------------------------ *)
(* Weighting ablation                                                  *)
(* ------------------------------------------------------------------ *)

let weighting () =
  section "Ablation - branching weights: rank (volume) vs unit";
  Format.printf "%-12s %16s %16s@." "workload" "locals (rank)" "locals (unit)";
  List.iter
    (fun (w : Resopt.Workloads.t) ->
      let nest = w.Resopt.Workloads.nest in
      let rank_w = Alignment.Alloc.run ~m:2 nest in
      let unit_w = Alignment.Alloc.run ~weighting:`Unit ~m:2 nest in
      Format.printf "%-12s %16d %16d@." w.Resopt.Workloads.name
        (List.length rank_w.Alignment.Alloc.local)
        (List.length unit_w.Alignment.Alloc.local))
    (Resopt.Workloads.all ())

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  section "Bechamel micro-benchmarks of the analyses";
  let open Bechamel in
  let nest = Nestir.Paper_examples.example1 () in
  let big = Mat.make 6 6 (fun i j -> (((i * 7) + (j * 3) + 1) mod 11) - 5) in
  let tests =
    [
      Test.make ~name:"hermite-row-6x6"
        (Staged.stage (fun () -> ignore (Hermite.row_style big)));
      Test.make ~name:"smith-6x6"
        (Staged.stage (fun () -> ignore (Smith.decompose big)));
      Test.make ~name:"access-graph-example1"
        (Staged.stage (fun () -> ignore (Alignment.Access_graph.build ~m:2 nest)));
      Test.make ~name:"alignment-example1"
        (Staged.stage (fun () -> ignore (Alignment.Alloc.run ~m:2 nest)));
      Test.make ~name:"pipeline-example1"
        (Staged.stage (fun () -> ignore (Resopt.Pipeline.run ~m:2 nest)));
      Test.make ~name:"decompose-paper-T"
        (Staged.stage (fun () -> ignore (Decomp.Decompose.min_factors paper_t)));
      Test.make ~name:"euclid-paper-T"
        (Staged.stage (fun () -> ignore (Decomp.Decompose.euclid paper_t)));
      Test.make ~name:"netsim-32x16-cyclic"
        (Staged.stage (fun () ->
             ignore
               (Distrib.Foldsim.time (Machine.Models.paragon ())
                  ~layout:(Distrib.Layout.all_cyclic 2) ~vgrid:[| 32; 16 |]
                  ~flow:paper_t ())));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance raw
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Format.printf "  %-28s %12.1f ns/run@." name est
          | _ -> Format.printf "  %-28s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig45", fig45);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("example1", example1);
    ("search", search);
    ("similarity", similarity);
    ("platonoff", platonoff);
    ("plancost", plancost);
    ("sweep", sweep);
    ("parbench", parbench);
    ("autodim", autodim);
    ("progtime", progtime);
    ("optimality", optimality);
    ("eventsim", eventsim);
    ("faultbench", faultbench);
    ("mapbench", mapbench);
    ("topobench", topobench);
    ("boundsbench", boundsbench);
    ("servebench", servebench);
    ("weighting", weighting);
    ("ablations", ablations);
    ("bechamel", bechamel);
  ]

(* Every bench run records spans and counters and leaves a diffable
   BENCH_obs.json snapshot next to the printed tables, so the perf
   trajectory of the analyses can be compared across commits. *)
let () =
  Obs.set_clock Unix.gettimeofday;
  Obs.enable ();
  run_timestamp := iso_utc (Unix.gettimeofday ());
  let rec parse_args = function
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some j when j >= 1 -> cli_jobs := Some j
      | _ ->
        Format.eprintf "--jobs expects a positive integer, got %s@." n;
        exit 1);
      parse_args rest
    | "--record" :: rest ->
      record_enabled := true;
      parse_args rest
    | "--history" :: f :: rest ->
      history_file := f;
      parse_args rest
    | "--rev" :: r :: rest ->
      git_rev := r;
      parse_args rest
    | rest -> rest
  in
  let names = parse_args (List.tl (Array.to_list Sys.argv)) in
  (match !cli_jobs with
  | Some j when j > 1 -> search_pool := Some (Par.Shared.get ~jobs:j)
  | _ -> ());
  let run_one (name, f) =
    cur_experiment := name;
    f ()
  in
  (match names with
  | [] -> List.iter run_one experiments
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> run_one (name, f)
        | None ->
          Format.eprintf "unknown experiment %s; known:%s@." name
            (String.concat " "
               (List.map (fun (n, _) -> " " ^ n) experiments));
          exit 1)
      names);
  Obs.write_file "BENCH_obs.json" (Obs.metrics_json ());
  Format.eprintf "metrics snapshot written to BENCH_obs.json@.";
  if !record_enabled then begin
    let records = List.rev !recorded in
    Obs.Benchstore.append !history_file records;
    Format.eprintf "%d bench records appended to %s@." (List.length records)
      !history_file
  end
