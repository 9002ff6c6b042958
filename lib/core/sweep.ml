type row = {
  workload : string;
  m : int;
  model : string;
  optimized : float;
  baseline : float;
  non_local : int;
  validated : bool;
  time_ms : float;
  cost_ms : float;
  resilience : (float * float) list;
  map_gain : float option;
  eff : float option;
}

(* The fault model priced at one resilience rate: the caller's base
   specs plus a machine-wide flaky probability. *)
let faults_at base rate =
  let specs = Machine.Fault.specs base in
  let specs =
    if rate > 0.0 then specs @ [ Machine.Fault.Flaky { link = None; prob = rate } ]
    else specs
  in
  Machine.Fault.make ~seed:(Machine.Fault.seed base) specs

(* Label construction costs a sprintf, so only pay it when the
   scheduler profiler is recording. *)
let profile_task label f =
  if Obs.Profile.enabled () then Obs.Profile.task (label ()) f else f ()

(* One (workload, m) cell: run the optimizer once, derive the baseline
   from its step 1, then price the two plans on every machine model.
   The optimizer run is timed once here and observed once in the
   [sweep.time_ms] histogram — stamping the same measurement into
   every model row used to triple-count it; per-model pricing gets its
   own clock ([cost_ms] / [sweep.cost_ms]).  The cell keeps one
   residual fold per distinct (topology, flows): models that share a
   topology (cm5 and paragon) price each traffic once and retime it,
   and the baseline reads the optimized plan's fold when their flows
   are equal. *)
let eval_cell models fault_rates mapping bounds (w : Workloads.t) m =
  profile_task (fun () ->
      Printf.sprintf "cell:%s:m=%d" w.Workloads.name m)
  @@ fun () ->
  match
    Obs.time_ms (fun () ->
        let opt = Pipeline.run ~m ~schedule:w.Workloads.schedule w.Workloads.nest in
        (opt, Feautrier.of_pipeline opt))
  with
  | exception _ ->
    Obs.incr "sweep.skipped";
    []
  | (opt, base), elapsed_ms ->
    Obs.observe "sweep.time_ms" elapsed_ms;
    let non_local = Pipeline.non_local opt in
    let validated = Validate.is_valid opt in
    let fold_of = Residual.shared () in
    List.map
      (fun model ->
        profile_task (fun () -> "row:" ^ model.Machine.Models.name)
        @@ fun () ->
        Obs.with_span "sweep.cell"
          ~args:
            [
              ("workload", w.Workloads.name);
              ("m", string_of_int m);
              ("model", model.Machine.Models.name);
            ]
        @@ fun () ->
        (* each plan's residual fold, shared by the cell's rows: every
           price and the bounds below read its counts, placement and
           kept stats *)
        let opt_fold = fold_of model opt.Pipeline.plan in
        let base_fold = fold_of model base.Feautrier.plan in
        let price ?(faults = Machine.Fault.none) ?mapping fold plan =
          (Cost.of_fold ~faults ~mapping model fold plan).Cost.total
        in
        let (optimized, baseline), cost_ms =
          Obs.time_ms (fun () ->
              ( price opt_fold opt.Pipeline.plan,
                price base_fold base.Feautrier.plan ))
        in
        (* resilience: does the optimized plan keep its lead on an
           imperfect machine?  gain = baseline / optimized, both
           priced under the same fault model *)
        let resilience =
          List.map
            (fun (rate, faults) ->
              let o = price ~faults opt_fold opt.Pipeline.plan in
              let b = price ~faults base_fold base.Feautrier.plan in
              (rate, if o > 0.0 then b /. o else 0.0))
            fault_rates
        in
        (* placement gain: the optimized plan's price under the fixed
           embedding over its price under the searched one.  1.0 when
           the mapping cannot help (no 2-D simulation grid, no 2x2
           residual flows, or nothing gained). *)
        let map_gain =
          Option.map
            (fun spec ->
              let mapped = price ~mapping:spec opt_fold opt.Pipeline.plan in
              if mapped > 0.0 then optimized /. mapped else 1.0)
            mapping
        in
        (* achieved-vs-bound transfer-time efficiency of the optimized
           plan's residual traffic ({!Efficiency}); None when bounds
           were not requested or the model has no 2-D simulation
           grid *)
        let eff =
          if bounds then
            Option.map
              (fun fold ->
                (Efficiency.of_traffic ?mapping model.Machine.Models.net fold)
                  .Efficiency.time.Bounds.efficiency)
              opt_fold
          else None
        in
        let row =
          {
            workload = w.Workloads.name;
            m;
            model = model.Machine.Models.name;
            optimized;
            baseline;
            non_local;
            validated;
            time_ms = elapsed_ms;
            cost_ms;
            resilience;
            map_gain;
            eff;
          }
        in
        (* counter snapshot of the cell, for `--stats` and the
           bench metrics dump *)
        Obs.incr "sweep.cells";
        Obs.incr ~by:row.non_local "sweep.non_local";
        Obs.observe "sweep.gain"
          (if row.optimized > 0.0 then row.baseline /. row.optimized else 0.0);
        Obs.observe "sweep.cost_ms" cost_ms;
        row)
      models

let resilience_rates = [ 0.0; 0.01; 0.05 ]

let run ?jobs ?(ms = [ 2 ]) ?models ?workloads ?faults ?cache
    ?mapping ?(bounds = false) () =
  Cache.scoped ?enable:cache @@ fun () ->
  let models =
    match models with
    | Some l -> l
    | None -> [ Machine.Models.cm5 (); Machine.Models.paragon (); Machine.Models.t3d () ]
  in
  let workloads = match workloads with Some l -> l | None -> Workloads.all () in
  let fault_rates =
    match faults with
    | None -> []
    | Some base -> List.map (fun r -> (r, faults_at base r)) resilience_rates
  in
  let cells =
    List.concat_map (fun w -> List.map (fun m -> (w, m)) ms) workloads
  in
  let eval (w, m) = eval_cell models fault_rates mapping bounds w m in
  match jobs with
  | None -> List.concat_map eval cells
  | Some j ->
    (* cells land in input order whatever the schedule, so the row
       list is identical to the sequential one; the shared pool keeps
       worker domains alive across rows and calls instead of paying a
       spawn/teardown per sweep *)
    Par.concat_map (Par.Shared.get ~jobs:j) eval cells

let rates_of rows =
  match rows with r :: _ -> List.map fst r.resilience | [] -> []

let has_map_gain rows =
  match rows with r :: _ -> r.map_gain <> None | [] -> false

(* present as soon as any row carries one: bounds sweeps with only
   grid-less models (t3d) keep today's table *)
let has_eff rows = List.exists (fun r -> r.eff <> None) rows

let pp_table ppf rows =
  let rates = rates_of rows in
  Format.fprintf ppf "%-12s %2s %-8s %12s %12s %8s %6s %9s %9s" "workload" "m"
    "model" "optimized" "baseline" "gain" "valid" "time ms" "cost ms";
  List.iter
    (fun rate -> Format.fprintf ppf " %8s" (Printf.sprintf "g@%g%%" (rate *. 100.0)))
    rates;
  if has_map_gain rows then Format.fprintf ppf " %8s" "gain_map";
  let eff_col = has_eff rows in
  if eff_col then Format.fprintf ppf " %8s" "eff";
  Format.fprintf ppf "@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s %2d %-8s %12.1f %12.1f %7.2fx %6b %9.2f %9.3f"
        r.workload r.m r.model r.optimized r.baseline
        (if r.optimized > 0.0 then r.baseline /. r.optimized else Float.infinity)
        r.validated r.time_ms r.cost_ms;
      List.iter (fun (_, g) -> Format.fprintf ppf " %7.2fx" g) r.resilience;
      Option.iter (fun g -> Format.fprintf ppf " %7.2fx" g) r.map_gain;
      if eff_col then
        (match r.eff with
        | Some e -> Format.fprintf ppf " %8.3f" e
        | None -> Format.fprintf ppf " %8s" "-");
      Format.fprintf ppf "@.")
    rows

let to_csv rows =
  let rates = rates_of rows in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "workload,m,model,optimized,baseline,gain,non_local,validated";
  List.iter
    (fun rate -> Buffer.add_string buf (Printf.sprintf ",gain_fault_%g" rate))
    rates;
  if has_map_gain rows then Buffer.add_string buf ",gain_map";
  let eff_col = has_eff rows in
  if eff_col then Buffer.add_string buf ",efficiency";
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%s,%.6f,%.6f,%.6f,%d,%b" r.workload r.m r.model
           r.optimized r.baseline
           (if r.optimized > 0.0 then r.baseline /. r.optimized else 0.0)
           r.non_local r.validated);
      List.iter
        (fun (_, g) -> Buffer.add_string buf (Printf.sprintf ",%.6f" g))
        r.resilience;
      Option.iter
        (fun g -> Buffer.add_string buf (Printf.sprintf ",%.6f" g))
        r.map_gain;
      if eff_col then
        Buffer.add_string buf
          (match r.eff with Some e -> Printf.sprintf ",%.6f" e | None -> ",");
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

(* Deterministic aggregates for benchmark recording: no timings, only
   the columns that diff clean across runs and job counts. *)
let metrics rows =
  let models = List.sort_uniq compare (List.map (fun r -> r.model) rows) in
  let per_model name =
    let rs = List.filter (fun r -> r.model = name) rows in
    let opt = List.fold_left (fun acc r -> acc +. r.optimized) 0.0 rs in
    let base = List.fold_left (fun acc r -> acc +. r.baseline) 0.0 rs in
    let mapped =
      (* summed optimized cost under the placement, recovered from the
         per-row gain; None when the sweep ran without a mapping *)
      List.fold_left
        (fun acc r ->
          match (acc, r.map_gain) with
          | Some acc, Some g when g > 0.0 -> Some (acc +. (r.optimized /. g))
          | _ -> None)
        (Some 0.0) rs
    in
    [
      (Printf.sprintf "%s.gain" name, (if opt > 0.0 then base /. opt else 0.0));
      (Printf.sprintf "%s.optimized_cost" name, opt);
    ]
    @ (match mapped with
      | Some m when rs <> [] ->
        [ (Printf.sprintf "%s.map_gain" name, if m > 0.0 then opt /. m else 1.0) ]
      | _ -> [])
    @
    (* mean achieved-vs-bound efficiency over the rows that carry one
       — deterministic, so safe to gate on in bench comparisons *)
    match List.filter_map (fun r -> r.eff) rs with
    | [] -> []
    | effs ->
      [
        ( Printf.sprintf "%s.efficiency" name,
          List.fold_left ( +. ) 0.0 effs /. float_of_int (List.length effs) );
      ]
  in
  (("rows", float_of_int (List.length rows))
   :: ( "validated",
        float_of_int (List.length (List.filter (fun r -> r.validated) rows)) )
   :: ( "non_local",
        float_of_int (List.fold_left (fun acc r -> acc + r.non_local) 0 rows) )
   :: List.concat_map per_model models)
