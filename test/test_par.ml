(* The parallel runtime: combinator results equal their sequential
   counterparts (whatever the jobs count), determinism of input order,
   exception propagation, pool lifecycle, and that Obs and Telemetry
   keep what every domain records. *)

(* the pool executes on min jobs cores domains: on one core these
   tests run every task on the calling domain *)
let with_pool jobs f = Reference.with_pool ~jobs f

(* ------------------------------------------------------------------ *)
(* Combinators vs. their sequential counterparts                       *)
(* ------------------------------------------------------------------ *)

let inputs = [ []; [ 42 ]; [ 1; 2 ]; List.init 100 (fun i -> i - 50) ]

let test_map_equals_sequential () =
  List.iter
    (fun jobs ->
      with_pool jobs @@ fun pool ->
      List.iter
        (fun l ->
          Alcotest.(check (list int))
            (Printf.sprintf "map jobs:%d n:%d" jobs (List.length l))
            (List.map (fun x -> (x * x) + 1) l)
            (Par.map pool (fun x -> (x * x) + 1) l))
        inputs)
    [ 1; 2; 8 ]

let test_concat_map_equals_sequential () =
  let f x = List.init (abs x mod 3) (fun i -> (x * 10) + i) in
  List.iter
    (fun l ->
      with_pool 4 @@ fun pool ->
      Alcotest.(check (list int))
        "concat_map" (List.concat_map f l) (Par.concat_map pool f l))
    inputs

(* ------------------------------------------------------------------ *)
(* Input-order determinism under deliberate imbalance                  *)
(* ------------------------------------------------------------------ *)

let test_order_determinism () =
  (* early items take much longer than late ones, so with 8 domains the
     completion order is scrambled; the result order must not be *)
  let n = 64 in
  let work i =
    let spin = (n - i) * 2000 in
    let acc = ref 0 in
    for k = 1 to spin do
      acc := (!acc + k) mod 9973
    done;
    (i, !acc land 0)
  in
  let expected = List.init n (fun i -> (i, 0)) in
  with_pool 8 @@ fun pool ->
  for _ = 1 to 3 do
    Alcotest.(check (list (pair int int)))
      "order" expected
      (Par.map pool work (List.init n Fun.id))
  done

(* ------------------------------------------------------------------ *)
(* Exceptions                                                          *)
(* ------------------------------------------------------------------ *)

exception Boom of int

let test_exception_propagation () =
  with_pool 4 @@ fun pool ->
  (match
     Par.map pool
       (fun i -> if i = 50 then raise (Boom i) else i)
       (List.init 100 Fun.id)
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 50 -> ());
  (* two failing tasks: the lowest input index wins, whatever the
     scheduling *)
  match
    Par.map pool
      (fun i -> if i = 30 || i = 60 then raise (Boom i) else i)
      (List.init 100 Fun.id)
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "lowest failing index" 30 i

let test_pool_survives_exception () =
  with_pool 4 @@ fun pool ->
  (try ignore (Par.map pool (fun _ -> failwith "boom") [ 1; 2; 3 ])
   with Failure _ -> ());
  Alcotest.(check (list int))
    "pool still works" [ 2; 4; 6 ]
    (Par.map pool (fun x -> 2 * x) [ 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Pool lifecycle                                                      *)
(* ------------------------------------------------------------------ *)

let test_pool_reuse () =
  let pool = Par.Pool.create ~jobs:4 in
  Alcotest.(check int) "jobs" 4 (Par.Pool.jobs pool);
  for round = 1 to 5 do
    Alcotest.(check (list int))
      (Printf.sprintf "round %d" round)
      (List.init 30 (fun i -> i * round))
      (Par.map pool (fun i -> i * round) (List.init 30 Fun.id))
  done;
  Par.Pool.shutdown pool;
  Par.Pool.shutdown pool (* idempotent *);
  match Par.map pool Fun.id [ 1 ] with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ()

let test_oversubscription () =
  (* many more jobs than items (and than cores) *)
  with_pool 8 @@ fun pool ->
  Alcotest.(check (list int)) "8 jobs, 3 items" [ 1; 4; 9 ]
    (Par.map pool (fun x -> x * x) [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "8 jobs, 1 item" [ 7 ] (Par.map pool Fun.id [ 7 ]);
  Alcotest.(check (list int)) "8 jobs, 0 items" [] (Par.map pool Fun.id [])

let test_jobs_clamped () =
  with_pool 0 @@ fun pool ->
  Alcotest.(check int) "jobs >= 1" 1 (Par.Pool.jobs pool);
  Alcotest.(check (list int)) "sequential pool works" [ 1; 2 ]
    (Par.map pool Fun.id [ 1; 2 ])

let test_width_capped () =
  let cores = max 1 (Domain.recommended_domain_count ()) in
  with_pool (cores + 7) @@ fun pool ->
  Alcotest.(check int) "jobs stays as requested" (cores + 7)
    (Par.Pool.jobs pool);
  Alcotest.(check int) "width capped at cores" cores (Par.Pool.width pool);
  Alcotest.(check (list int))
    "capped pool still computes" [ 1; 4; 9 ]
    (Par.map pool (fun x -> x * x) [ 1; 2; 3 ]);
  (* the cap never widens *)
  with_pool 1 @@ fun p ->
  Alcotest.(check int) "1-job pool has width 1" 1 (Par.Pool.width p)

let test_shared_pools () =
  let a = Par.Shared.get ~jobs:3 in
  let b = Par.Shared.get ~jobs:3 in
  Alcotest.(check bool) "same pool returned" true (a == b);
  let c = Par.Shared.get ~jobs:2 in
  Alcotest.(check bool) "distinct jobs, distinct pool" false (a == c);
  Alcotest.(check (list int))
    "shared pool computes" [ 0; 2; 4 ]
    (Par.map a (fun x -> 2 * x) [ 0; 1; 2 ]);
  Par.Shared.shutdown_all ();
  (* a fresh pool is created after shutdown_all *)
  let d = Par.Shared.get ~jobs:3 in
  Alcotest.(check bool) "fresh pool after shutdown_all" false (a == d);
  Alcotest.(check (list int))
    "fresh shared pool computes" [ 1; 2; 3 ]
    (Par.map d succ [ 0; 1; 2 ]);
  Par.Shared.shutdown_all ()

(* ------------------------------------------------------------------ *)
(* Obs, Telemetry and worker slots                                     *)
(* ------------------------------------------------------------------ *)

let obs_setup () =
  Obs.set_clock (fun () -> 0.0);
  Obs.enable ();
  Obs.reset ()

let obs_teardown () =
  Obs.reset ();
  Obs.disable ();
  Obs.set_clock Sys.time

let test_obs_counters_merge () =
  obs_setup ();
  let n = 40 in
  let task i =
    Obs.incr "par.test.tasks";
    Obs.incr ~by:i "par.test.weight";
    Obs.observe "par.test.histo" (float_of_int i)
  in
  (* sequential reference *)
  List.iter task (List.init n Fun.id);
  let seq_tasks = Obs.counter "par.test.tasks" in
  let seq_weight = Obs.counter "par.test.weight" in
  let seq_histo = Option.get (Obs.histogram "par.test.histo") in
  Obs.reset ();
  (with_pool 4 @@ fun pool -> ignore (Par.map pool task (List.init n Fun.id)));
  Alcotest.(check int) "counter equals sequential" seq_tasks
    (Obs.counter "par.test.tasks");
  Alcotest.(check int) "weighted counter equals sequential" seq_weight
    (Obs.counter "par.test.weight");
  let h = Option.get (Obs.histogram "par.test.histo") in
  Alcotest.(check int) "histogram count" seq_histo.Obs.count h.Obs.count;
  Alcotest.(check (float 1e-9)) "histogram sum" seq_histo.Obs.sum h.Obs.sum;
  Alcotest.(check (float 1e-9)) "histogram min" seq_histo.Obs.min_v h.Obs.min_v;
  Alcotest.(check (float 1e-9)) "histogram max" seq_histo.Obs.max_v h.Obs.max_v;
  obs_teardown ()

let test_obs_spans_gain_worker_arg () =
  obs_setup ();
  (with_pool 4 @@ fun pool ->
   ignore
     (Par.map pool
        (fun i -> Obs.with_span "par.test.span" (fun () -> i))
        (List.init 12 Fun.id)));
  let spans =
    List.filter (fun s -> s.Obs.span_name = "par.test.span") (Obs.spans ())
  in
  Alcotest.(check int) "every task span merged" 12 (List.length spans);
  List.iter
    (fun s ->
      match List.assoc_opt "worker" s.Obs.args with
      | Some _ -> ()
      | None -> Alcotest.fail "span lacks worker arg")
    spans;
  obs_teardown ()

(* one small simulation per task, each run labelled with its input *)
let sim_task i =
  let topo = Machine.Topology.make ~torus:true [| 4; 4 |] in
  ignore
    (Machine.Eventsim.run ~label:(string_of_int i) topo
       Machine.Eventsim.default_params
       (Reference.raw topo
          [ Machine.Message.make ~src:0 ~dst:(1 + (i mod 15)) ~bytes:(16 * (i + 1)) ]))

let test_obs_disabled_stays_silent () =
  Obs.reset ();
  Obs.disable ();
  Obs.Telemetry.reset ();
  Obs.Telemetry.disable ();
  (with_pool 4 @@ fun pool ->
   ignore
     (Par.map pool
        (fun i ->
          Obs.incr "par.test.silent";
          sim_task i;
          i)
        (List.init 8 Fun.id)));
  Alcotest.(check int) "nothing recorded when disabled" 0
    (Obs.counter "par.test.silent");
  Alcotest.(check int) "no telemetry runs when disabled" 0
    (List.length (Obs.Telemetry.runs ()))

(* Runs recorded on worker domains land in the shared store after the
   runs the caller already had, in arrival order, which depends on
   scheduling, so the parallel runs are compared sorted by label. *)
let telemetry_runs jobs =
  Obs.Telemetry.reset ();
  Obs.Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Telemetry.disable ();
      Obs.Telemetry.reset ())
    (fun () ->
      sim_task (-1);
      (with_pool jobs @@ fun pool ->
       ignore (Par.map pool sim_task (List.init 16 Fun.id)));
      match Obs.Telemetry.runs () with
      | first :: rest ->
        ( first.Obs.Telemetry.label,
          List.sort
            (fun a b -> compare a.Obs.Telemetry.label b.Obs.Telemetry.label)
            rest )
      | [] -> ("", []))

let test_telemetry_merge () =
  let label r = r.Obs.Telemetry.label in
  let _, seq = telemetry_runs 1 in
  let first, par = telemetry_runs 4 in
  Alcotest.(check string) "caller's run stays first" "-1" first;
  Alcotest.(check int) "all 16 runs kept at jobs 4" 16 (List.length par);
  Alcotest.(check (list string)) "same labels as jobs 1" (List.map label seq)
    (List.map label par);
  Alcotest.(check bool) "same runs as jobs 1" true (seq = par)

(* A domain that Par did not spawn records into the same stores as
   every other domain: after the join the caller sees its counter, its
   span (with no worker arg, being outside any Par slot) and its
   simulation run. *)
let test_bare_domain_kept () =
  obs_setup ();
  Obs.Telemetry.reset ();
  Obs.Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Telemetry.disable ();
      Obs.Telemetry.reset ();
      obs_teardown ())
  @@ fun () ->
  Domain.join
    (Domain.spawn (fun () ->
         Obs.incr "par.test.bare";
         Obs.with_span "par.test.bare_span" (fun () -> sim_task 7)));
  Alcotest.(check int) "counter kept" 1 (Obs.counter "par.test.bare");
  let spans =
    List.filter (fun s -> s.Obs.span_name = "par.test.bare_span") (Obs.spans ())
  in
  Alcotest.(check (list (list (pair string string)))) "span kept, untagged"
    [ [] ]
    (List.map (fun s -> s.Obs.args) spans);
  Alcotest.(check (list string)) "run kept" [ "7" ]
    (List.map (fun r -> r.Obs.Telemetry.label) (Obs.Telemetry.runs ()))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "par"
    [
      ( "combinators",
        [
          Alcotest.test_case "map = List.map" `Quick test_map_equals_sequential;
          Alcotest.test_case "concat_map" `Quick test_concat_map_equals_sequential;
          Alcotest.test_case "input-order determinism" `Quick
            test_order_determinism;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "propagation, lowest index" `Quick
            test_exception_propagation;
          Alcotest.test_case "pool survives a failure" `Quick
            test_pool_survives_exception;
        ] );
      ( "pool",
        [
          Alcotest.test_case "reuse across maps, shutdown" `Quick test_pool_reuse;
          Alcotest.test_case "oversubscription" `Quick test_oversubscription;
          Alcotest.test_case "jobs clamped to >= 1" `Quick test_jobs_clamped;
          Alcotest.test_case "width capped at core count" `Quick
            test_width_capped;
          Alcotest.test_case "shared pools are reused" `Quick test_shared_pools;
        ] );
      ( "obs",
        [
          Alcotest.test_case "counters and histograms merge" `Quick
            test_obs_counters_merge;
          Alcotest.test_case "spans gain the worker arg" `Quick
            test_obs_spans_gain_worker_arg;
          Alcotest.test_case "disabled stays silent" `Quick
            test_obs_disabled_stays_silent;
          Alcotest.test_case "telemetry runs merge" `Quick test_telemetry_merge;
          Alcotest.test_case "records from a bare domain are kept" `Quick
            test_bare_domain_kept;
        ] );
    ]
