(* The scheduler profiler: a hand-computed utilization golden on a
   fake clock, collapsed-stack and diagnosis pins, GC-delta accounting
   units, and the no-observer-effect property (profiled runs produce
   byte-identical results, including under --jobs 4). *)

let t = ref 0.0
let at ms = t := ms /. 1000.0 (* the clock is in seconds *)

let setup () =
  Obs.set_clock (fun () -> !t);
  t := 0.0;
  Obs.Profile.enable ();
  Obs.Profile.reset ()

let teardown () =
  Obs.Profile.reset ();
  Obs.Profile.disable ();
  Obs.set_clock Sys.time

(* The hand-computed timeline, all times in fake milliseconds:

     0..1    spawn event
     1..5    worker 0: chunk (2 items), nesting cell:a over 2..4
     1..9    worker 1: chunk (2 items)
     9..10   teardown event

   wall = 10 ms, width = 2 so the budget is 20 ms; busy = 4 + 8 = 12,
   spawn = 1 + 1 (teardowns count as spawns), idle = 20 - 14 = 6. *)
let scenario () =
  (* empty the minor heap so the few words the scenario allocates
     cannot trigger a collection mid-task: the GC columns are exactly
     zero *)
  Gc.minor ();
  Obs.Profile.note_pool ~jobs:4 ~width:2;
  at 0.0;
  Obs.Profile.event "spawn" (fun () -> at 1.0);
  Obs.Profile.with_worker 0 (fun () ->
      Obs.Profile.task "chunk" ~index:0 ~size:2 (fun () ->
          at 2.0;
          Obs.Profile.task "cell:a" (fun () -> at 4.0);
          at 5.0));
  Obs.Profile.with_worker 1 (fun () ->
      at 1.0;
      Obs.Profile.task "chunk" ~index:2 ~size:2 (fun () -> at 9.0));
  at 9.0;
  Obs.Profile.event "teardown" (fun () -> at 10.0)

(* ------------------------------------------------------------------ *)
(* Recorded data                                                       *)
(* ------------------------------------------------------------------ *)

let test_records () =
  setup ();
  scenario ();
  let tasks = Obs.Profile.tasks () in
  Alcotest.(check int) "3 tasks (2 top-level + 1 nested)" 3 (List.length tasks);
  let nested =
    List.find (fun t -> List.length t.Obs.Profile.t_stack = 2) tasks
  in
  Alcotest.(check (list string))
    "nested stack is outermost-first" [ "chunk"; "cell:a" ]
    nested.Obs.Profile.t_stack;
  Alcotest.(check (float 1e-6)) "nested start" 2000.0 nested.Obs.Profile.t_start_us;
  Alcotest.(check (float 1e-6)) "nested dur" 2000.0 nested.Obs.Profile.t_dur_us;
  Alcotest.(check int) "2 lifecycle events" 2
    (List.length (Obs.Profile.events ()));
  (match Obs.Profile.pool_shape () with
  | Some (4, 2) -> ()
  | _ -> Alcotest.fail "pool shape not recorded");
  let stats = Obs.Profile.worker_stats () in
  Alcotest.(check int) "2 workers" 2 (List.length stats);
  let w0 = List.nth stats 0 and w1 = List.nth stats 1 in
  Alcotest.(check int) "w0 top-level tasks" 1 w0.Obs.Profile.ws_tasks;
  Alcotest.(check int) "w0 items" 2 w0.Obs.Profile.ws_items;
  Alcotest.(check (float 1e-6))
    "w0 busy excludes nothing, counts top-level only" 4000.0
    w0.Obs.Profile.ws_busy_us;
  Alcotest.(check (float 1e-6)) "w1 busy" 8000.0 w1.Obs.Profile.ws_busy_us;
  teardown ()

let test_exception_still_records () =
  setup ();
  at 0.0;
  (try
     Obs.Profile.task "boom" (fun () ->
         at 3.0;
         failwith "boom")
   with Failure _ -> ());
  (match Obs.Profile.tasks () with
  | [ r ] ->
    Alcotest.(check (list string)) "label" [ "boom" ] r.Obs.Profile.t_stack;
    Alcotest.(check (float 1e-6)) "duration" 3000.0 r.Obs.Profile.t_dur_us
  | l -> Alcotest.fail (Printf.sprintf "expected 1 task, got %d" (List.length l)));
  teardown ()

(* ------------------------------------------------------------------ *)
(* Diagnosis                                                           *)
(* ------------------------------------------------------------------ *)

let test_diagnosis () =
  setup ();
  scenario ();
  let d = Option.get (Obs.Profile.diagnose ~cores:2 ()) in
  Alcotest.(check int) "jobs" 4 d.Obs.Profile.d_jobs;
  Alcotest.(check int) "width" 2 d.Obs.Profile.d_width;
  Alcotest.(check (float 1e-6)) "wall" 10_000.0 d.Obs.Profile.d_wall_us;
  Alcotest.(check (float 1e-6)) "budget = wall * width" 20_000.0
    d.Obs.Profile.d_budget_us;
  Alcotest.(check (float 1e-6)) "work" 12_000.0 d.Obs.Profile.d_work_us;
  Alcotest.(check (float 1e-6)) "gc (frozen clock => 0)" 0.0
    d.Obs.Profile.d_gc_us;
  Alcotest.(check (float 1e-6)) "spawn + teardown" 2000.0 d.Obs.Profile.d_spawn_us;
  Alcotest.(check (float 1e-6)) "idle = budget - covered" 6000.0
    d.Obs.Profile.d_idle_us;
  Alcotest.(check (float 1e-9)) "everything attributed" 1.0
    d.Obs.Profile.d_attributed;
  (* cost model by hand: items 4, 3 ms/item, spawn 2 ms/domain (the
     2 ms of spawn and teardown over the one spawn event) =>
     pred(1) = 12 ms, pred(2) = 8 ms, pred(3) = 10 ms: the measured
     optimum on 2 cores is 2 domains *)
  Alcotest.(check int) "recommended domains" 2 d.Obs.Profile.d_recommended;
  Alcotest.(check bool) "nothing recorded => no diagnosis" true
    (Obs.Profile.reset ();
     Obs.Profile.diagnose ~cores:2 () = None);
  teardown ()

(* ------------------------------------------------------------------ *)
(* Renderer pins                                                       *)
(* ------------------------------------------------------------------ *)

let report_golden =
  "parallel profile: jobs 4 (width 2), wall 10.000 ms, 2 tasks / 4 items\n\
   worker    busy ms  busy%  tasks  items   minor  major   promoted\n\
  \     0      4.000  40.0%      1      2       0      0          0\n\
  \     1      8.000  80.0%      1      2       0      0          0\n\
   timeline ('#' busy >= 50% of the column, '+' busy, '.' idle):\n\
  \  w0  |....+###################........................|\n\
  \  w1  |....+######################################+....|\n\
   task granularity: count 2, mean 6.000 ms, p50 4.000 / p95 8.000 / p99 8.000 ms\n\
   lifecycle: 1 spawns 1.000 ms, 1 teardowns 1.000 ms\n\
   diagnosis (budget 2 x 10.000 ms = 20.000 ms):\n\
  \  work    60.0%       12.000 ms\n\
  \  gc       0.0%        0.000 ms\n\
  \  spawn   10.0%        2.000 ms\n\
  \  idle    30.0%        6.000 ms\n\
  \  gc pressure: 0 minor + 0 major collections, 0 promoted words\n\
  \  attributed: 100.0% of the budget\n"

let test_utilization_report () =
  setup ();
  scenario ();
  (* the report recommends for this machine's core count; the count
     itself is pinned at 2 cores by the diagnosis test *)
  let d = Option.get (Obs.Profile.diagnose ()) in
  Alcotest.(check string) "report golden"
    (report_golden ^ Printf.sprintf "  recommended domains: %d\n" d.Obs.Profile.d_recommended)
    (Obs.Profile.utilization_report ());
  teardown ()

let collapsed_golden =
  "worker0;chunk 2000\nworker0;chunk;cell:a 2000\nworker1;chunk 8000\n"

let test_collapsed () =
  setup ();
  scenario ();
  (* exclusive time: worker 0's chunk is 4 ms inclusive minus the 2 ms
     nested cell *)
  Alcotest.(check string) "collapsed golden" collapsed_golden
    (Obs.Profile.collapsed ());
  teardown ()

let test_chrome_merge () =
  setup ();
  scenario ();
  let events = Obs.Profile.chrome_events () in
  Alcotest.(check int) "3 tasks + 2 lifecycle events" 5 (List.length events);
  let trace = Obs.chrome_trace () in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "profile rows merged into the Obs trace" true
    (contains "\"cat\":\"profile\"" trace);
  Alcotest.(check bool) "stacks exported" true
    (contains "\"stack\":\"chunk;cell:a\"" trace);
  teardown ()

let test_disabled_is_silent () =
  setup ();
  Obs.Profile.disable ();
  Obs.Profile.note_pool ~jobs:4 ~width:2;
  Obs.Profile.with_worker 1 (fun () ->
      Obs.Profile.task "chunk" (fun () -> at 5.0));
  Obs.Profile.event "spawn" (fun () -> at 6.0);
  Alcotest.(check int) "no tasks" 0 (List.length (Obs.Profile.tasks ()));
  Alcotest.(check int) "no events" 0 (List.length (Obs.Profile.events ()));
  Alcotest.(check bool) "no pool shape" true (Obs.Profile.pool_shape () = None);
  Alcotest.(check string) "empty report" "" (Obs.Profile.utilization_report ());
  teardown ()

(* ------------------------------------------------------------------ *)
(* GC accounting units                                                 *)
(* ------------------------------------------------------------------ *)

let test_gc_deltas () =
  (* real clock, real GC: a task that forces a minor collection while
     holding live data must report >= 1 minor collection and > 0
     promoted words, and a task that does neither reports 0 *)
  Obs.set_clock Sys.time;
  Obs.Profile.enable ();
  Obs.Profile.reset ();
  let keep = ref [||] in
  Obs.Profile.task "allocating" (fun () ->
      keep := Array.init 10_000 (fun i -> float_of_int i);
      Gc.minor ());
  Gc.minor ();
  Obs.Profile.task "quiet" (fun () -> ignore (Sys.opaque_identity !keep));
  (match Obs.Profile.tasks () with
  | [ alloc; quiet ] ->
    Alcotest.(check bool) "allocating task counts its minor collection" true
      (alloc.Obs.Profile.t_minor >= 1);
    Alcotest.(check bool) "live words promoted" true
      (alloc.Obs.Profile.t_promoted > 0.0);
    Alcotest.(check int) "quiet task induces no collection" 0
      quiet.Obs.Profile.t_minor
  | l -> Alcotest.fail (Printf.sprintf "expected 2 tasks, got %d" (List.length l)));
  teardown ()

(* ------------------------------------------------------------------ *)
(* No observer effect                                                  *)
(* ------------------------------------------------------------------ *)

let qcheck_no_observer_effect =
  QCheck.Test.make ~count:30 ~name:"profiled Par.map equals unprofiled"
    QCheck.(pair (list small_int) (int_range 1 6))
    (fun (l, jobs) ->
      let f x = (x * 7) + (x mod 3) in
      let off =
        Reference.with_pool ~jobs (fun pool ->
            Par.map pool f l)
      in
      setup ();
      let on =
        Reference.with_pool ~jobs (fun pool ->
            Par.map pool f l)
      in
      teardown ();
      off = List.map f l && on = off)

let test_sweep_unaffected () =
  (* the CLI contract behind --profile: the sweep CSV is byte-identical
     with the profiler on, under --jobs 4 *)
  let run () = Resopt.Sweep.to_csv (Resopt.Sweep.run ~jobs:4 ~ms:[ 1; 2 ] ()) in
  let off = run () in
  setup ();
  let on = run () in
  let seq_on = Resopt.Sweep.to_csv (Resopt.Sweep.run ~ms:[ 1; 2 ] ()) in
  Alcotest.(check bool) "profiler recorded the run" true
    (Obs.Profile.tasks () <> []);
  teardown ();
  Alcotest.(check string) "profiled jobs-4 CSV = unprofiled" off on;
  Alcotest.(check string) "profiled parallel CSV = sequential" seq_on on;
  Par.Shared.shutdown_all ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "profile"
    [
      ( "recording",
        [
          Alcotest.test_case "tasks, events, worker stats" `Quick test_records;
          Alcotest.test_case "raising tasks still record" `Quick
            test_exception_still_records;
          Alcotest.test_case "disabled stays silent" `Quick
            test_disabled_is_silent;
          Alcotest.test_case "GC delta units" `Quick test_gc_deltas;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "hand-computed diagnosis" `Quick test_diagnosis;
        ] );
      ( "renderers",
        [
          Alcotest.test_case "utilization report golden" `Quick
            test_utilization_report;
          Alcotest.test_case "collapsed stacks golden" `Quick test_collapsed;
          Alcotest.test_case "chrome rows merged" `Quick test_chrome_merge;
        ] );
      ( "observer effect",
        [
          QCheck_alcotest.to_alcotest qcheck_no_observer_effect;
          Alcotest.test_case "sweep CSV identical under profiling" `Quick
            test_sweep_unaffected;
        ] );
    ]
