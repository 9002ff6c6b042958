(* Command-line driver: run the residual-communication optimizer on a
   named workload and print the mapping report.

     resopt-cli list
     resopt-cli run example1 [-m 2] [--baseline platonoff|feautrier]
     resopt-cli graph example1 [-m 2]
     resopt-cli sweep [--jobs 4] [--ms 1,2,3] [--csv FILE]
     resopt-cli search [--bound 6] [--jobs 4]
     resopt-cli simulate [-k 3] [--layout grouped|block|cyclic]
     resopt-cli chaos [-n 25] [--seed 0] [--jobs 4]

   The commands that price or simulate communications also take
   --faults SPEC --seed N to run on an imperfect machine.
*)

open Cmdliner

(* --trace FILE / --stats: shared observability flags.  Each command
   that supports them composes [obs_term] and wraps its body in
   [with_obs]; with neither flag given, instrumentation stays disabled
   and output is byte-identical to an uninstrumented build. *)

let obs_term =
  let trace_arg =
    let doc =
      "Record spans and counters and write them to $(docv) as Chrome \
       trace-event JSON (open in chrome://tracing or Perfetto)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let stats_arg =
    let doc = "Print the recorded span / counter summary after the output." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  Term.(const (fun trace stats -> (trace, stats)) $ trace_arg $ stats_arg)

let with_obs (trace, stats) f =
  if trace = None && not stats then f ()
  else begin
    Obs.set_clock Unix.gettimeofday;
    Obs.enable ();
    let write_failed = ref false in
    let finally () =
      (match trace with
      | Some file -> (
        try
          Obs.write_file file (Obs.chrome_trace ());
          Format.eprintf "trace written to %s@." file
        with Sys_error msg ->
          Format.eprintf "cannot write trace: %s@." msg;
          write_failed := true)
      | None -> ());
      if stats then Format.printf "%a" Obs.pp_summary ()
    in
    (* protect: the (possibly partial) trace is still written when the
       optimizer itself fails *)
    let v = Fun.protect ~finally f in
    if !write_failed then exit 1;
    v
  end

(* --profile FILE / --flame FILE: shared scheduler-profiling flags.
   Either flag turns the Obs.Profile sink on for the command; the
   utilization report goes to stderr and the artifacts to the given
   files, so stdout (and any --csv) stays byte-identical to an
   unprofiled run — the same zero-observer-effect contract as
   --trace. *)

let profile_term =
  let profile_arg =
    let doc =
      "Record a scheduler profile — per-worker busy/idle timelines, \
       pool lifecycle costs and per-task GC deltas — print the \
       utilization report to stderr and write the profile to $(docv) \
       as Chrome trace-event JSON (open in chrome://tracing or \
       Perfetto; composes with $(b,--trace)).  Command output is \
       byte-identical to an unprofiled run."
    in
    Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)
  in
  let flame_arg =
    let doc =
      "Also write the profile as collapsed stacks to $(docv), one \
       $(b,worker;label;... count) line per stack with exclusive \
       microseconds, ready for flamegraph tools."
    in
    Arg.(value & opt (some string) None & info [ "flame" ] ~docv:"FILE" ~doc)
  in
  Term.(const (fun p f -> (p, f)) $ profile_arg $ flame_arg)

let with_profile (file, flame) f =
  if file = None && flame = None then f ()
  else begin
    Obs.Profile.enable ();
    let write_failed = ref false in
    let write what dst contents =
      try
        Obs.write_file dst contents;
        Format.eprintf "%s written to %s@." what dst
      with Sys_error msg ->
        Format.eprintf "cannot write %s: %s@." what msg;
        write_failed := true
    in
    let finally () =
      prerr_string (Obs.Profile.utilization_report ());
      (match file with
      | Some dst -> write "profile" dst (Obs.chrome_trace ())
      | None -> ());
      match flame with
      | Some dst -> write "flame" dst (Obs.Profile.collapsed ())
      | None -> ()
    in
    let v = Fun.protect ~finally f in
    if !write_failed then exit 1;
    v
  end

(* --faults SPEC / --seed N: shared fault-injection flags.  Without
   --faults the value is [None] and every command's output is
   byte-identical to a build without the fault subsystem. *)

(* --map KIND / --map-seed N: shared process-placement flags.  Without
   --map (or with --map none) the value is [None] and every command's
   output is byte-identical to a build without the mapping subsystem. *)

let map_term =
  let map_arg =
    let doc =
      "Search a topology-aware placement of the processes carrying the \
       residual traffic (minimizing hop-bytes over the volume graph): \
       $(b,none) keeps the paper's fixed embedding, $(b,greedy) the \
       growing construction, $(b,search) greedy plus seeded \
       pairwise-swap hill climbing with restarts."
    in
    Arg.(value & opt string "none" & info [ "map" ] ~docv:"KIND" ~doc)
  in
  let map_seed_arg =
    let doc =
      "Seed of the mapping search's restart streams: the same seed and \
       $(b,--map) kind reproduce the same placement, at any $(b,--jobs) \
       level."
    in
    Arg.(value & opt int 0 & info [ "map-seed" ] ~docv:"N" ~doc)
  in
  let build kind seed =
    if kind = "none" then None
    else
      match Mapping.kind_of_string kind with
      | Some k -> Some (Mapping.spec ~seed k)
      | None ->
        Format.eprintf "bad --map %s (expected none, greedy or search)@." kind;
        exit 1
  in
  Term.(const build $ map_arg $ map_seed_arg)

let faults_term =
  let spec_arg =
    let doc =
      "Run on an imperfect machine described by $(docv): items joined \
       by ';' among $(b,flaky:P), $(b,flaky:A-B:P), $(b,down:A-B), \
       $(b,down:A-B:F-T), $(b,degrade:F), $(b,degrade:A-B:F) and \
       $(b,dead:R) — e.g. $(b,flaky:0.05;down:3-4;dead:7)."
    in
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)
  in
  let seed_arg =
    let doc =
      "Seed of the fault schedule: the same seed and $(b,--faults) \
       spec reproduce the same drops and the same results, at any \
       $(b,--jobs) level."
    in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let build spec seed =
    match spec with
    | None -> None
    | Some s -> (
      match Machine.Fault.parse s with
      | Ok specs -> Some (Machine.Fault.make ~seed specs)
      | Error e ->
        Format.eprintf "bad --faults spec: %s@." e;
        exit 1)
  in
  Term.(const build $ spec_arg $ seed_arg)

(* --topo SPEC: shared pluggable-topology flag.  Without it every
   command keeps its historical machines and its output is
   byte-identical to builds before the topology layer existed. *)
let topo_term =
  let spec_arg =
    let doc =
      "Run on the network described by $(docv): $(b,mesh:PxQ) or \
       $(b,torus:PxQ) (any number of x-separated extents), \
       $(b,fattree:LEVELS:ARITY), or \
       $(b,dragonfly:GROUPS:ROUTERS:HOSTS)[$(b,:adaptive)[$(b,:SEED)]] \
       for Valiant-style seeded adaptive routing.  Composes with \
       $(b,--faults), $(b,--map) and $(b,--jobs) unchanged."
    in
    Arg.(value & opt (some string) None & info [ "topo" ] ~docv:"SPEC" ~doc)
  in
  let build = function
    | None -> None
    | Some s -> (
      match Machine.Topology.of_string s with
      | Ok t -> Some t
      | Error e ->
        Format.eprintf "%s@." e;
        exit 1)
  in
  Term.(const build $ spec_arg)

(* Commands that fold residual flows over a 2-D virtual grid need a
   2-D host view; every fat tree and dragonfly has one, a 1-D or 3-D
   grid does not. *)
let require_host_grid2d cmd t =
  if Machine.Topology.ndims t <> 2 then begin
    Format.eprintf "%s: --topo %s has no 2-D host grid@." cmd
      (Machine.Topology.to_string t);
    exit 1
  end;
  t

let list_cmd =
  let doc = "List the available workloads." in
  let run () =
    List.iter
      (fun (w : Resopt.Workloads.t) ->
        Format.printf "%-12s %s@." w.Resopt.Workloads.name
          w.Resopt.Workloads.description)
      (Resopt.Workloads.all ())
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let workload_arg =
  let doc = "Workload name (see $(b,list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

(* Grid dimensions are positive: [-m 0] or [--ms 0] is a usage error
   naming the flag, not a crash deep inside the optimizer. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let m_arg =
  let doc = "Dimension of the target virtual processor grid." in
  Arg.(value & opt positive_int 2 & info [ "m" ] ~docv:"M" ~doc)

let find_workload name =
  match Resopt.Workloads.find name with
  | w -> w
  | exception Not_found ->
    Format.eprintf "unknown workload %s; try `resopt-cli list'@." name;
    exit 1

let run_cmd =
  let doc = "Run the two-step heuristic (or a baseline) on a workload." in
  let baseline_arg =
    let doc = "Baseline to run instead: $(b,platonoff) or $(b,feautrier)." in
    Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"NAME" ~doc)
  in
  let run name m baseline faults mapping topo obs =
    let w = find_workload name in
    with_obs obs @@ fun () ->
    match baseline with
    | None ->
      (* the report (plus mapping / resilience blocks) renders through
         Serve.Answer so the CLI and the serve daemon cannot drift:
         the daemon's ok-responses are these exact bytes *)
      print_string (Serve.Answer.render ?faults ?mapping ?topo ~m w)
    | Some "platonoff" ->
      let r =
        Resopt.Platonoff.run ~m ~schedule:w.Resopt.Workloads.schedule
          w.Resopt.Workloads.nest
      in
      Format.printf "%a@." Resopt.Platonoff.pp r
    | Some "feautrier" ->
      let r =
        Resopt.Feautrier.run ~m ~schedule:w.Resopt.Workloads.schedule
          w.Resopt.Workloads.nest
      in
      Format.printf "Feautrier baseline (step 1 only):@.%a@\nsummary: %a@."
        Resopt.Commplan.pp r.Resopt.Feautrier.plan Resopt.Commplan.pp_summary
        (Resopt.Feautrier.summary r)
    | Some other ->
      Format.eprintf "unknown baseline %s@." other;
      exit 1
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ workload_arg $ m_arg $ baseline_arg $ faults_term $ map_term
      $ topo_term $ obs_term)

let graph_cmd =
  let doc = "Print the access graph of a workload." in
  let run name m obs =
    let w = find_workload name in
    with_obs obs @@ fun () ->
    let g = Alignment.Access_graph.build ~m w.Resopt.Workloads.nest in
    Format.printf "%a@." Alignment.Access_graph.pp g
  in
  Cmd.v (Cmd.info "graph" ~doc) Term.(const run $ workload_arg $ m_arg $ obs_term)

let codegen_cmd =
  let doc = "Emit the mapping of a workload as HPF-style directives." in
  let run name m =
    let w = find_workload name in
    let r =
      Resopt.Pipeline.run ~m ~schedule:w.Resopt.Workloads.schedule
        w.Resopt.Workloads.nest
    in
    print_string (Resopt.Codegen.emit r)
  in
  Cmd.v (Cmd.info "codegen" ~doc) Term.(const run $ workload_arg $ m_arg)

(* A DSL file read with its [schedule] lines: the nest, and the
   schedule they declare or [None] (the all-parallel default). *)
let read_dsl file =
  let ic = open_in file in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  match Nestir.Dsl.parse_with_schedule text with
  | Error e ->
    Format.eprintf "parse error: %s@." e;
    exit 1
  | Ok parsed -> parsed

let parse_cmd =
  let doc =
    "Parse a loop nest from a file in the resopt DSL and run the optimizer \
     on it, under the schedule its $(b,schedule) lines declare (all \
     statements parallel when it has none)."
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"DSL file.")
  in
  let run file m =
    let nest, schedule = read_dsl file in
    let r = Resopt.Pipeline.run ~m ?schedule nest in
    Format.printf "%a@." Resopt.Pipeline.pp r
  in
  Cmd.v (Cmd.info "parse" ~doc) Term.(const run $ file_arg $ m_arg)

let spmd_cmd =
  let doc = "Emit the owner-computes SPMD skeleton for a workload." in
  let run name m =
    let w = find_workload name in
    let r =
      Resopt.Pipeline.run ~m ~schedule:w.Resopt.Workloads.schedule
        w.Resopt.Workloads.nest
    in
    print_string (Resopt.Codegen.emit_spmd r)
  in
  Cmd.v (Cmd.info "spmd" ~doc) Term.(const run $ workload_arg $ m_arg)

let autodim_cmd =
  let doc = "Evaluate candidate grid dimensions for a workload." in
  let run name =
    let w = find_workload name in
    Resopt.Autodim.pp Format.std_formatter
      (Resopt.Autodim.evaluate w.Resopt.Workloads.nest);
    Format.printf "cheapest: m = %d@." (Resopt.Autodim.best w.Resopt.Workloads.nest)
  in
  Cmd.v (Cmd.info "autodim" ~doc) Term.(const run $ workload_arg)

let compile_cmd =
  let doc =
    "Compile a DSL nest file to an artifact bundle: mapping report, \
     HPF directives and C-like pseudocode.  The optimizer runs under the \
     schedule the file's $(b,schedule) lines declare, as $(b,parse) \
     does."
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"DSL file.")
  in
  let out_arg =
    Arg.(
      value & opt string "resopt-out"
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run file m outdir =
    let nest, schedule = read_dsl file in
    let r = Resopt.Pipeline.run ~m ?schedule nest in
    (try Unix.mkdir outdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let write name contents =
      let oc = open_out (Filename.concat outdir name) in
      output_string oc contents;
      close_out oc
    in
    write "report.md" (Resopt.Report.markdown r);
    write "directives.hpf" (Resopt.Codegen.emit r);
    write "nest.c" (Nestir.Cprint.to_c nest);
    write "nest.resopt" (Nestir.Dsl.print_with_schedule nest schedule);
    Format.printf "%s@." (Resopt.Report.summary_line r);
    Format.printf "wrote report.md, directives.hpf, nest.c, nest.resopt to %s/@."
      outdir
  in
  Cmd.v (Cmd.info "compile" ~doc) Term.(const run $ file_arg $ m_arg $ out_arg)

let jobs_arg =
  let doc =
    "Fan the work over $(docv) domains (a Par.Pool).  Results are \
     identical whatever the value; omit the flag for the sequential \
     path that never touches the parallel runtime."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let fuzz_cmd =
  let doc = "Run random nests through the optimizer and the validators." in
  let count_arg =
    Arg.(value & opt int 100 & info [ "n" ] ~docv:"COUNT" ~doc:"Number of nests.")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed.")
  in
  let run count seed jobs obs profile =
    with_obs obs @@ fun () ->
    with_profile profile @@ fun () ->
    let nests = Nestir.Gennest.generate_many ~seed ~count in
    let verdict nest =
      match Resopt.Pipeline.run ~m:2 nest with
      | exception Failure _ -> `Skipped
      | r -> if Resopt.Validate.is_valid r then `Ok else `Invalid
    in
    let verdicts =
      match jobs with
      | None -> List.map verdict nests
      | Some j -> Par.map (Par.Shared.get ~jobs:j) verdict nests
    in
    let ok = ref 0 and skipped = ref 0 and failed = ref 0 in
    List.iter2
      (fun nest v ->
        match v with
        | `Ok -> incr ok
        | `Skipped -> incr skipped
        | `Invalid ->
          incr failed;
          Format.printf "INVALID: %s@." nest.Nestir.Loopnest.nest_name)
      nests verdicts;
    Format.printf "fuzz: %d valid, %d unmaterializable, %d INVALID@." !ok !skipped
      !failed;
    if !failed > 0 then exit 1
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ count_arg $ seed_arg $ jobs_arg $ obs_term $ profile_term)

let chaos_cmd =
  let doc =
    "Chaos-test the event simulator: run real communication patterns \
     under random seeded fault schedules, checking termination, the \
     delivery invariant (delivered + dropped + unreachable = total) \
     and per-seed determinism."
  in
  let count_arg =
    Arg.(value & opt int 25 & info [ "n" ] ~docv:"COUNT" ~doc:"Number of trials.")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed.")
  in
  let run count seed jobs topo obs =
    with_obs obs @@ fun () ->
    let topo =
      match topo with
      | None -> (Machine.Models.paragon ()).Machine.Models.topo
      | Some t -> require_host_grid2d "chaos" t
    in
    let vgrid =
      [| 2 * Machine.Topology.dim topo 0; 2 * Machine.Topology.dim topo 1 |]
    in
    (* traffic: the 2x2 data flows of the optimized workload plans *)
    let flows =
      List.concat_map (Resopt.Residual.flows_of_workload ~m:2)
        (Resopt.Workloads.all ())
    in
    let traffic =
      Array.of_list
        (List.map
           (fun flow ->
             Resopt.Residual.traffic (Resopt.Residual.make ~vgrid ~bytes:8 topo [ flow ]))
           flows)
    in
    let trial i =
      let rng = Machine.Fault.Rng.make (seed + i) in
      let specs = Machine.Fault.random_specs rng topo in
      let faults = Machine.Fault.make ~seed:(seed + i) specs in
      let m = traffic.(i mod Array.length traffic) in
      let run () =
        Machine.Eventsim.run ~faults topo Machine.Eventsim.default_params
          (Machine.Netsim.volume ~coalesce:false topo m)
      in
      let r = run () in
      let total = ref 0 in
      m (fun _ _ _ -> incr total);
      let invariant =
        r.Machine.Eventsim.delivered + r.Machine.Eventsim.dropped
        + r.Machine.Eventsim.unreachable
        = !total
      in
      (* same seed, same schedule, same result — twice over *)
      (i, Machine.Fault.to_string specs, r, run () = r, invariant)
    in
    let idx = List.init count Fun.id in
    let results =
      try
        match jobs with
        | None -> List.map trial idx
        | Some j ->
          (* the fan-out itself is part of the determinism check: the
             parallel trials must reproduce the sequential ones *)
          let fanned = Par.map (Par.Shared.get ~jobs:j) trial idx in
          if fanned <> List.map trial idx then begin
            Format.eprintf "chaos: --jobs %d results differ from sequential@." j;
            exit 1
          end;
          fanned
      with Machine.Eventsim.Deadlock { cycles; in_flight } ->
        Format.eprintf
          "chaos: simulation deadlocked after %d cycles with %d packets in \
           flight@."
          cycles in_flight;
        exit 2
    in
    let failed = ref 0 in
    List.iter
      (fun (i, spec, (r : Machine.Eventsim.result), deterministic, invariant) ->
        let spec = if spec = "" then "(no faults)" else spec in
        Format.printf
          "trial %3d  %-40s cycles %7d  delivered %3d  dropped %2d  \
           unreachable %2d  retransmits %3d@."
          i spec r.Machine.Eventsim.cycles r.Machine.Eventsim.delivered
          r.Machine.Eventsim.dropped r.Machine.Eventsim.unreachable
          r.Machine.Eventsim.retransmits;
        if not deterministic then begin
          incr failed;
          Format.printf "  NONDETERMINISTIC: two runs of seed %d differ@." (seed + i)
        end;
        if not invariant then begin
          incr failed;
          Format.printf
            "  INVARIANT VIOLATED: delivered + dropped + unreachable <> total@."
        end)
      results;
    Format.printf "chaos: %d trials, %d failures@." count !failed;
    if !failed > 0 then exit 1
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const run $ count_arg $ seed_arg $ jobs_arg $ topo_term $ obs_term)

let sweep_cmd =
  let doc =
    "Sweep every workload x machine model (x grid dimension), pricing \
     the two-step heuristic against the step-1-only baseline."
  in
  let ms_arg =
    let doc = "Comma-separated grid dimensions to sweep." in
    Arg.(
      value & opt (list positive_int) [ 2 ] & info [ "ms" ] ~docv:"M,M,..." ~doc)
  in
  let csv_arg =
    let doc =
      "Also write the rows to $(docv) as CSV — deterministic columns \
       only, so outputs diff clean across runs and $(b,--jobs) values."
    in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let bounds_arg =
    let doc =
      "Also report the achieved-vs-bound transfer-time efficiency of \
       every optimized plan's residual traffic (the $(b,eff) table / \
       $(b,efficiency) CSV column, in (0, 1]).  Bounds are \
       deterministic; without the flag the table and CSV are \
       byte-identical to a bounds-free sweep."
    in
    Arg.(value & flag & info [ "bounds" ] ~doc)
  in
  let run jobs ms csv faults mapping topo bounds obs profile =
    with_obs obs @@ fun () ->
    with_profile profile @@ fun () ->
    (* --faults adds the resilience columns (gain re-priced at the
       default fault rates on top of the given spec), --map the
       gain_map column and --bounds the eff column; without them the
       table and CSV are unchanged.  --topo swaps the three historical
       machines for the one requested topology. *)
    let models =
      Option.map (fun t -> [ Machine.Models.of_topo t ]) topo
    in
    let rows = Resopt.Sweep.run ?jobs ~ms ?models ?faults ?mapping ~bounds () in
    Resopt.Sweep.pp_table Format.std_formatter rows;
    match csv with
    | None -> ()
    | Some file ->
      Obs.write_file file (Resopt.Sweep.to_csv rows);
      Format.eprintf "csv written to %s@." file
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run $ jobs_arg $ ms_arg $ csv_arg $ faults_term $ map_term
      $ topo_term $ bounds_arg $ obs_term $ profile_term)

let search_cmd =
  let doc =
    "Scan the box of determinant-1 flow matrices with entries bounded \
     by $(b,--bound) and histogram how many elementary factors each \
     needs (the paper's exhaustive decomposition search)."
  in
  let bound_arg =
    let doc = "Scan matrices with |entries| <= $(docv)." in
    Arg.(value & opt int 6 & info [ "bound" ] ~docv:"BOUND" ~doc)
  in
  let run bound jobs obs profile =
    with_obs obs @@ fun () ->
    with_profile profile @@ fun () ->
    let hist =
      match jobs with
      | None -> Decomp.Search.factor_histogram ~bound ()
      | Some j ->
        Decomp.Search.factor_histogram ~pool:(Par.Shared.get ~jobs:j) ~bound ()
    in
    Format.printf "%a@." Decomp.Search.pp hist;
    List.iter
      (fun t ->
        Format.printf "  witness needing > 4 factors: %a@." Linalg.Mat.pp_flat t)
      hist.Decomp.Search.witnesses_beyond
  in
  Cmd.v (Cmd.info "search" ~doc)
    Term.(const run $ bound_arg $ jobs_arg $ obs_term $ profile_term)

let profile_cmd =
  let doc =
    "Profile the parallel runtime on a sweep: run workload x model x \
     dimension cells over a pool, record per-worker timelines, pool \
     lifecycle costs and GC attribution, and print the utilization \
     report with a diagnosis of where the wall-clock budget goes \
     (work / GC / spawn / idle) and a measured recommended_domains."
  in
  let workload_opt_arg =
    let doc = "Profile only this workload (default: all of them)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)
  in
  let ms_arg =
    let doc = "Comma-separated grid dimensions to sweep while profiling." in
    Arg.(
      value
      & opt (list positive_int) [ 1; 2; 3 ]
      & info [ "ms" ] ~docv:"M,M,..." ~doc)
  in
  let profile_file_arg =
    let doc =
      "Also write the profile to $(docv) as Chrome trace-event JSON."
    in
    Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)
  in
  let flame_arg =
    let doc = "Also write collapsed stacks to $(docv) for flamegraph tools." in
    Arg.(value & opt (some string) None & info [ "flame" ] ~docv:"FILE" ~doc)
  in
  let run name jobs ms profile_file flame =
    let workloads = Option.map (fun n -> [ find_workload n ]) name in
    Obs.Profile.enable ();
    let rows = Resopt.Sweep.run ?jobs ~ms ?workloads () in
    (* the report is this command's output, so it goes to stdout *)
    print_string (Obs.Profile.utilization_report ());
    Format.printf "(%d sweep rows computed)@." (List.length rows);
    let write what dst contents =
      try
        Obs.write_file dst contents;
        Format.eprintf "%s written to %s@." what dst
      with Sys_error msg ->
        Format.eprintf "cannot write %s: %s@." what msg;
        exit 1
    in
    Option.iter (fun dst -> write "profile" dst (Obs.chrome_trace ())) profile_file;
    Option.iter (fun dst -> write "flame" dst (Obs.Profile.collapsed ())) flame
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ workload_opt_arg $ jobs_arg $ ms_arg $ profile_file_arg
      $ flame_arg)

let report_cmd =
  let doc =
    "Full markdown report: plan, validation, costs, directives.  With \
     $(b,--net), instead render the network-telemetry report of the \
     workload's residual traffic simulated on a grid: per-link ASCII \
     heatmap, latency / queue-wait percentiles and load Gini, \
     optionally also as an HTML dashboard."
  in
  let net_arg =
    let doc =
      "Simulate the workload's residual flows on the event simulator \
       with telemetry on and print the link heatmap + percentile \
       report instead of the markdown report."
    in
    Arg.(value & flag & info [ "net" ] ~doc)
  in
  let grid_arg =
    let doc = "Physical grid for $(b,--net), as $(i,P)x$(i,Q)." in
    Arg.(value & opt string "8x8" & info [ "grid" ] ~docv:"PxQ" ~doc)
  in
  let mesh_arg =
    let doc = "Use a mesh instead of the default torus (with $(b,--net))." in
    Arg.(value & flag & info [ "mesh" ] ~doc)
  in
  let bytes_arg =
    let doc = "Bytes per message (with $(b,--net))." in
    Arg.(value & opt int 64 & info [ "bytes" ] ~docv:"B" ~doc)
  in
  let html_arg =
    let doc =
      "Also write the telemetry as a self-contained HTML dashboard to \
       $(docv) (with $(b,--net)): embedded JSON + inline JS, no \
       external assets."
    in
    Arg.(value & opt (some string) None & info [ "html" ] ~docv:"FILE" ~doc)
  in
  let bounds_arg =
    let doc =
      "Also print the communication lower bounds of the simulated \
       traffic and the achieved-vs-bound efficiency (with $(b,--net); \
       the panel joins the HTML dashboard too).  Without the flag the \
       report and dashboard are byte-identical to a bounds-free run."
    in
    Arg.(value & flag & info [ "bounds" ] ~doc)
  in
  let net_report w name m grid mesh bytes html faults mapping topo bounds =
    let topo =
      match topo with
      | Some t ->
        (* --topo overrides --grid/--mesh *)
        require_host_grid2d "report --net" t
      | None -> (
        match List.map int_of_string_opt (String.split_on_char 'x' grid) with
        | [ Some p; Some q ] when p > 0 && q > 0 ->
          Machine.Topology.make ~torus:(not mesh) [| p; q |]
        | _ ->
          Format.eprintf "bad --grid %s (expected PxQ)@." grid;
          exit 1)
    in
    let vgrid =
      [| 2 * Machine.Topology.dim topo 0; 2 * Machine.Topology.dim topo 1 |]
    in
    let traffic =
      Resopt.Residual.make ~vgrid ~bytes topo
        (Resopt.Residual.flows_of_workload ~m w)
    in
    (* --bounds: lower-bound the very traffic this report simulates.
       Computed before the telemetry sink opens so the Netsim pricing
       inside Bounds.transfer_time never pollutes the dashboard. *)
    let eff =
      if bounds then
        Some
          (Resopt.Efficiency.of_traffic
             (Machine.Models.of_topo topo).Machine.Models.net traffic)
      else None
    in
    Obs.Telemetry.enable ();
    let simulate label placed =
      (try
         ignore
           (Machine.Eventsim.run ?faults ~label topo
              Machine.Eventsim.default_params
              (Machine.Netsim.volume ~coalesce:false topo placed)
             : Machine.Eventsim.result)
       with Machine.Eventsim.Deadlock { cycles; in_flight } ->
         Format.eprintf
           "report: simulation deadlocked after %d cycles with %d packets in \
            flight@."
           cycles in_flight;
         exit 2);
      let run = Obs.Telemetry.last_run () in
      Option.iter (fun run -> print_string (Obs.Telemetry.render_ascii run)) run;
      run
    in
    let before = simulate name (Resopt.Residual.traffic traffic) in
    (* --map: simulate the same traffic again under the searched
       placement — both runs land in the telemetry sink, so the ASCII
       heatmaps (and the HTML dashboard) show before and after *)
    (match mapping with
    | None -> ()
    | Some spec ->
      let vol = Resopt.Residual.volume_graph traffic in
      let perm = Mapping.compute spec topo vol in
      let after =
        simulate (name ^ ":mapped") (Resopt.Residual.traffic ~placement:perm traffic)
      in
      let gini r = Obs.Telemetry.gini (Obs.Telemetry.link_loads r) in
      Format.printf
        "mapping (--map %s): hop-bytes %d -> %d, link-load gini %s -> %s@."
        (Mapping.kind_to_string spec.Mapping.kind)
        (Mapping.hop_bytes topo vol
           (Mapping.identity (Machine.Topology.size topo)))
        (Mapping.hop_bytes topo vol perm)
        (match before with
        | Some r -> Printf.sprintf "%.3f" (gini r)
        | None -> "-")
        (match after with
        | Some r -> Printf.sprintf "%.3f" (gini r)
        | None -> "-"));
    Option.iter
      (fun e ->
        Format.printf "@.communication lower bounds (--bounds):@.%a@?"
          Resopt.Efficiency.pp e)
      eff;
    match html with
    | None -> ()
    | Some file ->
      let extra =
        Option.map
          (fun e ->
            let panel = Format.asprintf "%a" Resopt.Efficiency.pp e in
            let escaped =
              String.concat "&lt;" (String.split_on_char '<' panel)
            in
            "<h2>communication lower bounds</h2><pre>" ^ escaped ^ "</pre>")
          eff
      in
      Obs.write_file file
        (Obs.Telemetry.render_html ?extra (Obs.Telemetry.runs ()));
      Format.eprintf "dashboard written to %s@." file
  in
  let run name m net grid mesh bytes html faults mapping topo bounds obs =
    let w = find_workload name in
    with_obs obs @@ fun () ->
    if net then net_report w name m grid mesh bytes html faults mapping topo bounds
    else
      let r =
        Resopt.Pipeline.run ~m ~schedule:w.Resopt.Workloads.schedule
          w.Resopt.Workloads.nest
      in
      print_string (Resopt.Report.markdown r)
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const run $ workload_arg $ m_arg $ net_arg $ grid_arg $ mesh_arg
      $ bytes_arg $ html_arg $ faults_term $ map_term $ topo_term $ bounds_arg
      $ obs_term)

let bounds_cmd =
  let doc =
    "Communication lower bounds of a workload's residual traffic and \
     the achieved-vs-optimal efficiency: the cycle-packing volume \
     bound (bytes no balanced placement can avoid), the HBL-style \
     flow classifier rank(F - I), and the per-component transfer-time \
     bound on the machine model — serial ports, link-load pigeonhole \
     / cut / distance average, farthest hop — against the fault-free \
     achieved price.  Efficiency is provably in (0, 1]."
  in
  let bytes_arg =
    let doc = "Bytes per message." in
    Arg.(value & opt int 64 & info [ "bytes" ] ~docv:"B" ~doc)
  in
  let run name m bytes mapping topo obs =
    let w = find_workload name in
    with_obs obs @@ fun () ->
    let model =
      match topo with
      | None -> Machine.Models.paragon ()
      | Some t -> Machine.Models.of_topo (require_host_grid2d "bounds" t)
    in
    match Resopt.Efficiency.of_workload ~bytes ?mapping ~m model w with
    | None ->
      Format.eprintf "bounds: %s has no 2-D simulation grid@."
        (Machine.Topology.to_string model.Machine.Models.topo);
      exit 1
    | Some e ->
      Format.printf "%s on %s (m = %d, %d-byte items%s):@.%a" name
        model.Machine.Models.name m bytes
        (match mapping with
        | None -> ""
        | Some s -> ", --map " ^ Mapping.kind_to_string s.Mapping.kind)
        Resopt.Efficiency.pp e
  in
  Cmd.v (Cmd.info "bounds" ~doc)
    Term.(
      const run $ workload_arg $ m_arg $ bytes_arg $ map_term $ topo_term
      $ obs_term)

let bench_compare_cmd =
  let doc =
    "Compare benchmark metrics against a baseline and exit nonzero on \
     regression.  Both files may be a $(b,BENCH_HISTORY.jsonl) history \
     (the latest record per metric wins) or a committed \
     $(b,BENCH_*.json) snapshot (numeric leaves flattened to dotted \
     paths); the format is auto-detected."
  in
  let baseline_arg =
    let doc =
      "Baseline metric file.  A baseline that does not exist yet is \
       treated as empty — every current metric reports as added and \
       the comparison passes — so gating a freshly introduced \
       $(b,BENCH_*.json) does not fail its first run."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BASELINE" ~doc)
  in
  let current_arg =
    let doc = "Current metric file (default $(b,BENCH_HISTORY.jsonl))." in
    Arg.(
      value
      & opt string "BENCH_HISTORY.jsonl"
      & info [ "current" ] ~docv:"FILE" ~doc)
  in
  let threshold_arg =
    let doc =
      "Tolerated relative change per metric; a change of exactly \
       $(docv) still passes (the inequality is strict)."
    in
    Arg.(value & opt float 0.3 & info [ "threshold" ] ~docv:"T" ~doc)
  in
  let run baseline current threshold =
    let load what file =
      try Obs.Benchstore.load_metrics file
      with
      | Sys_error msg ->
        Format.eprintf "cannot read %s file: %s@." what msg;
        exit 2
      | Obs.Benchstore.Parse_error msg ->
        Format.eprintf "cannot parse %s file %s: %s@." what file msg;
        exit 2
    in
    let base =
      if Sys.file_exists baseline then load "baseline" baseline
      else begin
        Format.eprintf "baseline %s does not exist; comparing against empty@."
          baseline;
        []
      end
    in
    let cur = load "current" current in
    let comps =
      Obs.Benchstore.compare_metrics ~threshold ~baseline:base ~current:cur ()
    in
    print_string (Obs.Benchstore.render_report ~threshold comps);
    if Obs.Benchstore.failures comps <> [] then exit 1
  in
  Cmd.v (Cmd.info "bench-compare" ~doc)
    Term.(const run $ baseline_arg $ current_arg $ threshold_arg)

(* --socket PATH / --port N: where a service listens (serve) or is
   reached (loadgen).  --port wins when both are given. *)

let serve_addr_term ~default_sock =
  let socket_arg =
    let doc = "Listen on (or connect to) a Unix-domain socket at $(docv)." in
    Arg.(value & opt string default_sock & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let port_arg =
    let doc = "Use TCP on 127.0.0.1:$(docv) instead of the Unix socket." in
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let build socket port =
    match port with
    | Some p -> Serve.Wire.Tcp ("127.0.0.1", p)
    | None -> Serve.Wire.Unix_sock socket
  in
  Term.(const build $ socket_arg $ port_arg)

let serve_cmd =
  let doc =
    "Run the optimizer as a fault-tolerant service: framed requests \
     over a Unix or TCP socket, answers byte-identical to the offline \
     $(b,run) command, with per-request deadlines, bounded-queue \
     admission control, coalescing of identical in-flight solves, \
     graceful drain on SIGTERM and crash-safe cache snapshots."
  in
  let jobs_arg' =
    let doc = "Fan each batch of distinct queued solves over $(docv) domains." in
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let max_queue_arg =
    let doc = "Admission bound: shed requests beyond $(docv) queued solves." in
    Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc =
      "Default per-request deadline in milliseconds (0 = none); a \
       request's own $(b,deadline_ms) field overrides it.  It bounds only \
       the wait for a solve: a request answered from the response memo \
       never times out."
    in
    Arg.(value & opt int 0 & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let snapshot_arg =
    let doc =
      "Snapshot the cache file every $(docv) solved batches (0 = only \
       at shutdown).  Snapshots are atomic-rename writes, so a crash \
       mid-snapshot never corrupts the previous one."
    in
    Arg.(value & opt int 8 & info [ "snapshot-every" ] ~docv:"N" ~doc)
  in
  let cache_file_arg =
    let doc =
      "Persist the memo tables (including served answers) to $(docv): \
       loaded at startup — corrupt or missing starts cold — and \
       snapshotted while serving, so restarts answer warm."
    in
    Arg.(value & opt (some string) None & info [ "cache-file" ] ~docv:"FILE" ~doc)
  in
  let run addr jobs max_queue deadline_ms snapshot_every cache_file =
    let cfg =
      {
        (Serve.Server.default_config addr) with
        Serve.Server.jobs;
        max_queue;
        deadline_ms;
        snapshot_every;
        cache_file;
      }
    in
    let t = Serve.Server.start cfg in
    Serve.Server.install_signal_handlers t;
    Format.eprintf "resopt serve: listening on %s (jobs %d, max-queue %d)@."
      (Serve.Wire.addr_to_string (Serve.Server.address t))
      jobs max_queue;
    Serve.Server.wait t;
    Format.eprintf "resopt serve: drained, bye@."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run
      $ serve_addr_term ~default_sock:"resopt.sock"
      $ jobs_arg' $ max_queue_arg $ deadline_arg $ snapshot_arg $ cache_file_arg)

let loadgen_cmd =
  let doc =
    "Replay a seeded workload mix against a running $(b,serve) daemon \
     from concurrent clients, with capped-backoff retries on shed and \
     timed-out requests, and report percentile latencies.  With \
     $(b,--verify), byte-compare every answer against a local solve \
     and exit nonzero on any mismatch."
  in
  let n_arg =
    Arg.(value & opt int 50 & info [ "n" ] ~docv:"COUNT" ~doc:"Number of requests.")
  in
  let clients_arg =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"C" ~doc:"Concurrent client threads.")
  in
  let qps_arg =
    let doc = "Target aggregate request rate (0 = as fast as possible)." in
    Arg.(value & opt float 0.0 & info [ "qps" ] ~docv:"QPS" ~doc)
  in
  let seed_arg =
    let doc = "Seed of the request mix and the retry jitter streams." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let deadline_arg =
    let doc = "Attach this deadline (milliseconds) to every request." in
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let verify_arg =
    let doc = "Byte-compare every ok answer against a local solve." in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let report_arg =
    let doc = "Write the outcome/latency summary to $(docv) as JSON." in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  let run addr n clients qps seed deadline_ms verify report =
    let requests = Serve.Loadgen.mix ~seed ?deadline_ms ~n () in
    let s =
      Serve.Loadgen.run ~addr ~clients ~qps ~verify ~requests ~seed ()
    in
    Format.printf "%a" Serve.Loadgen.pp s;
    List.iter
      (fun key ->
        Format.printf "MISMATCH on request:@.%s@."
          (String.concat "  " (String.split_on_char '\n' key)))
      s.Serve.Loadgen.mismatched;
    (match report with
    | Some file ->
      Obs.write_file file (Serve.Loadgen.summary_json s);
      Format.eprintf "report written to %s@." file
    | None -> ());
    if s.Serve.Loadgen.mismatches > 0 || s.Serve.Loadgen.errors > 0 then exit 1
  in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(
      const run
      $ serve_addr_term ~default_sock:"resopt.sock"
      $ n_arg $ clients_arg $ qps_arg $ seed_arg $ deadline_arg $ verify_arg
      $ report_arg)

let simulate_cmd =
  let doc =
    "Simulate an elementary communication U_k under a data distribution on \
     the Paragon model."
  in
  let k_arg =
    let doc = "Parameter of the elementary matrix U_k = [[1,k],[0,1]]." in
    Arg.(value & opt int 3 & info [ "k" ] ~docv:"K" ~doc)
  in
  let layout_arg =
    let doc = "Distribution: $(b,grouped), $(b,block), $(b,cyclic) or $(b,cyclicb)." in
    Arg.(value & opt string "grouped" & info [ "layout" ] ~docv:"SCHEME" ~doc)
  in
  let run k layout faults topo obs =
    let scheme =
      match layout with
      | "grouped" -> Distrib.Layout.Grouped (max 1 k)
      | "block" -> Distrib.Layout.Block
      | "cyclic" -> Distrib.Layout.Cyclic
      | "cyclicb" -> Distrib.Layout.Cyclic_block 8
      | other ->
        Format.eprintf "unknown layout %s@." other;
        exit 1
    in
    with_obs obs @@ fun () ->
    let model, where =
      match topo with
      | None -> (Machine.Models.paragon ~p:16 ~q:4 (), "16x4 mesh")
      | Some t ->
        let t = require_host_grid2d "simulate" t in
        (Machine.Models.of_topo t, Machine.Topology.to_string t)
    in
    let uk = Linalg.Mat.of_lists [ [ 1; k ]; [ 0; 1 ] ] in
    let stats =
      Obs.with_span "simulate" ~args:[ ("k", string_of_int k); ("layout", layout) ]
      @@ fun () ->
      Distrib.Foldsim.time ?faults model
        ~layout:[| scheme; Distrib.Layout.Block |]
        ~vgrid:[| 840; 8 |] ~flow:uk ()
    in
    Format.printf "U_%d under %a x BLOCK on %s: %a@." k
      Distrib.Layout.pp_scheme scheme where Machine.Netsim.pp_stats stats
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(const run $ k_arg $ layout_arg $ faults_term $ topo_term $ obs_term)

let () =
  (* Wall-clock spans everywhere: the default Sys.time is processor
     time, which undercounts anything spent inside Par workers. *)
  Obs.set_clock Unix.gettimeofday;
  let doc = "Optimize residual communications of affine loop nests (Dion, Randriamaro, Robert 1996)." in
  let info = Cmd.info "resopt-cli" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; graph_cmd; codegen_cmd; parse_cmd; compile_cmd; report_cmd; fuzz_cmd; autodim_cmd; spmd_cmd; simulate_cmd; sweep_cmd; search_cmd; chaos_cmd; bounds_cmd; bench_compare_cmd; profile_cmd; serve_cmd; loadgen_cmd ]))
