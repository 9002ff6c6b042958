(* Tests for the Obs.Telemetry sink (percentiles, gini, heatmap,
   ASCII/HTML renderers), the Obs.Benchstore history + comparator, and
   the no-observer-effect property of the instrumented simulators. *)

let with_telemetry f =
  Obs.Telemetry.reset ();
  Obs.Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Telemetry.disable ();
      Obs.Telemetry.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Percentiles and gini                                                *)
(* ------------------------------------------------------------------ *)

let test_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50 of 1..100" 50.0 (Obs.Telemetry.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p95 of 1..100" 95.0 (Obs.Telemetry.percentile xs 95.0);
  Alcotest.(check (float 1e-9)) "p99 of 1..100" 99.0 (Obs.Telemetry.percentile xs 99.0);
  Alcotest.(check (float 1e-9)) "p0 = min" 1.0 (Obs.Telemetry.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100 = max" 100.0 (Obs.Telemetry.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "empty -> 0" 0.0 (Obs.Telemetry.percentile [||] 50.0);
  Alcotest.(check (float 1e-9)) "singleton" 7.0 (Obs.Telemetry.percentile [| 7.0 |] 99.0);
  (* nearest-rank on a small unsorted sample: p50 of 5 values is the
     3rd order statistic *)
  Alcotest.(check (float 1e-9)) "p50 of 5" 3.0
    (Obs.Telemetry.percentile [| 5.0; 1.0; 4.0; 2.0; 3.0 |] 50.0);
  (* ties: the rank lands inside a run of equal values and must return
     that value, at every percentile the run spans *)
  let tied = [| 1.0; 2.0; 2.0; 2.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "p25 inside a tie run" 2.0
    (Obs.Telemetry.percentile tied 25.0);
  Alcotest.(check (float 1e-9)) "p50 inside a tie run" 2.0
    (Obs.Telemetry.percentile tied 50.0);
  Alcotest.(check (float 1e-9)) "p75 inside a tie run" 2.0
    (Obs.Telemetry.percentile tied 75.0);
  Alcotest.(check (float 1e-9)) "all-equal sample at any p" 4.0
    (Obs.Telemetry.percentile [| 4.0; 4.0; 4.0 |] 99.0)

let test_gini () =
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Obs.Telemetry.gini [||]);
  Alcotest.(check (float 1e-9)) "all zero" 0.0 (Obs.Telemetry.gini [| 0.0; 0.0 |]);
  Alcotest.(check (float 1e-9)) "uniform" 0.0 (Obs.Telemetry.gini [| 3.0; 3.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "concentrated" 0.75
    (Obs.Telemetry.gini [| 0.0; 0.0; 0.0; 10.0 |]);
  (* a single link carries everything yet is perfectly even with
     itself *)
  Alcotest.(check (float 1e-9)) "singleton" 0.0 (Obs.Telemetry.gini [| 5.0 |])

(* ------------------------------------------------------------------ *)
(* Heatmap golden (pinned loads, 3x3 torus)                            *)
(* ------------------------------------------------------------------ *)

let test_heatmap_golden () =
  let loads =
    [
      ((0, 1), 8);
      ((1, 0), 3);
      (* folded into (0,1): max of the two directions *)
      ((3, 4), 4);
      ((2, 0), 2);
      (* row wrap *)
      ((6, 0), 8);
      (* column wrap *)
      ((5, 3), 1);
      ((8, 6), 6);
    ]
  in
  let expected =
    String.concat "\n"
      [
        "link heatmap ('.'=idle, '1'-'9' scaled to peak 8; '~'=torus wrap):";
        "+  9  +  .  +  ~3";
        ".     .     .";
        "+  5  +  .  +  ~2";
        ".     .     .";
        "+  .  +  .  +  ~7";
        "~9    ~.    ~.";
        "";
      ]
  in
  Alcotest.(check string) "3x3 torus heatmap" expected
    (Obs.Telemetry.heatmap ~dims:[| 3; 3 |] ~torus:true loads)

let test_heatmap_mesh_and_table () =
  (* a mesh never draws wrap glyphs *)
  let s = Obs.Telemetry.heatmap ~dims:[| 3; 3 |] ~torus:false [ ((0, 1), 5) ] in
  Alcotest.(check bool) "no wrap glyph on mesh" false (String.contains s '~');
  (* >2-D falls back to the sorted link table *)
  let t =
    Obs.Telemetry.heatmap ~dims:[| 2; 2; 2 |] ~torus:true
      [ ((0, 1), 5); ((1, 3), 9) ]
  in
  Alcotest.(check bool) "link table lists hottest first" true
    (String.length t > 0
    &&
    let i = Str.search_forward (Str.regexp_string "1 -> 3") t 0 in
    let j = Str.search_forward (Str.regexp_string "0 -> 1") t 0 in
    i < j)

(* ------------------------------------------------------------------ *)
(* Golden ASCII report: pinned broadcast on a 4x4 torus                *)
(* ------------------------------------------------------------------ *)

let broadcast_msgs =
  List.init 15 (fun i -> Machine.Message.make ~src:0 ~dst:(i + 1) ~bytes:16)

let test_broadcast_report_golden () =
  with_telemetry (fun () ->
      let topo = Machine.Topology.make ~torus:true [| 4; 4 |] in
      let r =
        Machine.Eventsim.run ~label:"bcast" topo Machine.Eventsim.default_params
          (Reference.raw topo broadcast_msgs)
      in
      let run = Option.get (Obs.Telemetry.last_run ()) in
      let actual = Obs.Telemetry.render_ascii run in
      let expected =
        String.concat "\n"
          [
            "telemetry: eventsim [bcast] on 4x4 torus, 15 messages, 962 cycles";
            "outcome: delivered 15  dropped 0  unreachable 0  retransmits 0";
            "latency (cycles): p50 0.0  p95 1.0  p99 1.0  (min 0.0, max 1.0)";
            "queue wait (cycles): p50 0.0  p95 1.0  p99 1.0  (min 0.0, max 1.0)";
            "links: 15 active, load gini 0.383 (busy cycles)";
            "link heatmap ('.'=idle, '1'-'9' scaled to peak 8; '~'=torus wrap):";
            "+  3  +  2  +  .  +  ~2";
            "9     .     .     .";
            "+  3  +  2  +  .  +  ~2";
            "5     .     .     .";
            "+  3  +  2  +  .  +  ~2";
            ".     .     .     .";
            "+  3  +  2  +  .  +  ~2";
            "~5    ~.    ~.    ~.";
            "";
          ]
      in
      Alcotest.(check int) "all delivered" 15 r.Machine.Eventsim.delivered;
      Alcotest.(check string) "broadcast telemetry report" expected actual)

(* ------------------------------------------------------------------ *)
(* HTML dashboard well-formedness                                      *)
(* ------------------------------------------------------------------ *)

(* minimal JSON validator: enough to prove the embedded payload is
   parseable, without pulling a json package into the tests *)
let rec skip_json s pos =
  let n = String.length s in
  let fail msg = Alcotest.failf "bad dashboard JSON: %s at %d" msg pos in
  let rec skip_ws p =
    if p < n && (s.[p] = ' ' || s.[p] = '\n' || s.[p] = '\t' || s.[p] = '\r')
    then skip_ws (p + 1)
    else p
  in
  let pos = skip_ws pos in
  if pos >= n then fail "eof"
  else
    match s.[pos] with
    | '{' | '[' ->
      let close = if s.[pos] = '{' then '}' else ']' in
      let rec items p first =
        let p = skip_ws p in
        if p >= n then fail "unterminated container"
        else if s.[p] = close then p + 1
        else begin
          let p = if first then p else if s.[p] = ',' then skip_ws (p + 1) else fail "missing comma" in
          let p =
            if close = '}' then begin
              let p = skip_json s p in
              let p = skip_ws p in
              if p < n && s.[p] = ':' then p + 1 else fail "missing colon"
            end
            else p
          in
          items (skip_json s p) false
        end
      in
      items (pos + 1) true
    | '"' ->
      let rec str p =
        if p >= n then fail "unterminated string"
        else if s.[p] = '\\' then str (p + 2)
        else if s.[p] = '"' then p + 1
        else str (p + 1)
      in
      str (pos + 1)
    | 't' -> pos + 4
    | 'f' -> pos + 5
    | 'n' -> pos + 4
    | '-' | '0' .. '9' ->
      let rec num p =
        if
          p < n
          && (match s.[p] with
             | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
             | _ -> false)
        then num (p + 1)
        else p
      in
      num pos
    | c -> fail (Printf.sprintf "unexpected %c" c)

let extract_payload html =
  let marker = "id=\"telemetry-data\">" in
  let start =
    Str.search_forward (Str.regexp_string marker) html 0 + String.length marker
  in
  let stop = Str.search_forward (Str.regexp_string "</script>") html start in
  String.sub html start (stop - start)

let test_dashboard_html () =
  with_telemetry (fun () ->
      let topo = Machine.Topology.make ~torus:true [| 4; 4 |] in
      ignore
        (Machine.Eventsim.run ~label:"bcast" topo Machine.Eventsim.default_params
           (Reference.raw topo broadcast_msgs));
      ignore
        (Reference.price ~label:"priced" topo
           { Machine.Netsim.alpha = 10.0; beta = 0.1; hop = 1.0 }
           broadcast_msgs);
      let html = Obs.Telemetry.render_html (Obs.Telemetry.runs ()) in
      let payload = String.trim (extract_payload html) in
      (* the payload must survive sitting inside a <script> block *)
      Alcotest.(check bool) "payload has no raw '<'" false
        (String.contains payload '<');
      let stop = skip_json payload 0 in
      Alcotest.(check int) "payload is one complete JSON value"
        (String.length payload) stop;
      Alcotest.(check bool) "both runs embedded" true
        (Str.string_match (Str.regexp ".*\"sim\":\"eventsim\".*") payload 0
        && Str.string_match (Str.regexp ".*\"sim\":\"netsim\".*") payload 0))

(* A label that would close the <script> block must come out as
   \u003c escapes, and the payload must still end where its JSON does. *)
let test_dashboard_script_safe () =
  with_telemetry (fun () ->
      let topo = Machine.Topology.make ~torus:true [| 4; 4 |] in
      ignore
        (Machine.Eventsim.run ~label:"a<b</script>" topo
           Machine.Eventsim.default_params (Reference.raw topo broadcast_msgs));
      let html = Obs.Telemetry.render_html (Obs.Telemetry.runs ()) in
      let payload = String.trim (extract_payload html) in
      Alcotest.(check bool) "no raw '<' between the script tags" false
        (String.contains payload '<');
      Alcotest.(check bool) "label written with \\u003c" true
        (try
           ignore
             (Str.search_forward
                (Str.regexp_string "\"a\\u003cb\\u003c/script>\"")
                payload 0);
           true
         with Not_found -> false);
      Alcotest.(check int) "payload is one complete JSON value"
        (String.length payload) (skip_json payload 0))

(* ------------------------------------------------------------------ *)
(* No observer effect: telemetry on/off gives identical results        *)
(* ------------------------------------------------------------------ *)

let result_tuple (r : Machine.Eventsim.result) =
  ( r.Machine.Eventsim.cycles,
    r.Machine.Eventsim.delivered,
    r.Machine.Eventsim.dropped,
    r.Machine.Eventsim.retransmits,
    r.Machine.Eventsim.unreachable,
    r.Machine.Eventsim.max_link_queue,
    r.Machine.Eventsim.total_link_busy )

let msgs_gen =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (map3
         (fun src dst bytes -> Machine.Message.make ~src ~dst ~bytes)
         (int_range 0 8) (int_range 0 8) (int_range 0 64)))

let prop_no_observer_effect =
  QCheck.Test.make ~count:50 ~name:"telemetry on/off: identical eventsim results"
    (QCheck.make msgs_gen) (fun msgs ->
      let topo = Machine.Topology.make ~torus:true [| 3; 3 |] in
      let faults =
        Machine.Fault.make ~seed:7
          [ Machine.Fault.Flaky { link = None; prob = 0.05 } ]
      in
      let run () =
        result_tuple
          (Machine.Eventsim.run ~faults topo Machine.Eventsim.default_params
             (Reference.raw topo msgs))
      in
      Obs.Telemetry.disable ();
      let off = run () in
      let on =
        with_telemetry (fun () ->
            let r = run () in
            (* and the recorded run agrees with the returned result *)
            let tr = Option.get (Obs.Telemetry.last_run ()) in
            let count o =
              List.length
                (List.filter
                   (fun (m : Obs.Telemetry.message) -> m.Obs.Telemetry.outcome = o)
                   tr.Obs.Telemetry.messages)
            in
            let _, delivered, dropped, _, unreachable, _, _ = r in
            assert (count Obs.Telemetry.Delivered = delivered);
            assert (count Obs.Telemetry.Dropped = dropped);
            assert (count Obs.Telemetry.Unreachable = unreachable);
            assert (List.length tr.Obs.Telemetry.messages = List.length msgs);
            r)
      in
      on = off)

(* ------------------------------------------------------------------ *)
(* Benchstore: record round-trip and parse errors                      *)
(* ------------------------------------------------------------------ *)

let test_benchstore_roundtrip () =
  let r =
    Obs.Benchstore.make ~jobs:4 ~faults:"flaky:0.05" ~git_rev:"abc123"
      ~timestamp:"2026-08-06T12:00:00Z" ~experiment:"faultbench"
      ~metric:"rate0.05.ev_direct_cycles" 4102.0
  in
  (match Obs.Benchstore.of_line (Obs.Benchstore.to_line r) with
  | Ok r' -> Alcotest.(check bool) "round-trip" true (r = r')
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (* a history line written before records lost their cache flag *)
  (match
     Obs.Benchstore.of_line
       "{\"v\":1,\"experiment\":\"faultbench\",\"metric\":\"rate0.05.ev_direct_cycles\",\"value\":4102,\"jobs\":4,\"cache\":true,\"faults\":\"flaky:0.05\",\"rev\":\"abc123\",\"ts\":\"2026-08-06T12:00:00Z\"}"
   with
  | Ok old -> Alcotest.(check bool) "old line with a cache key loads" true (old = r)
  | Error e -> Alcotest.failf "old line rejected: %s" e);
  (* defaults *)
  let d = Obs.Benchstore.make ~experiment:"e" ~metric:"m" 1.5 in
  (match Obs.Benchstore.of_line (Obs.Benchstore.to_line d) with
  | Ok d' ->
    Alcotest.(check bool) "defaults round-trip" true (d = d');
    Alcotest.(check bool) "no jobs" true (d'.Obs.Benchstore.jobs = None)
  | Error e -> Alcotest.failf "defaults round-trip failed: %s" e)

let test_benchstore_bad_lines () =
  let check_err name line expect =
    match Obs.Benchstore.of_line line with
    | Ok _ -> Alcotest.failf "%s: expected an error" name
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %S (got %S)" name expect e)
        true
        (Str.string_match (Str.regexp (".*" ^ Str.quote expect ^ ".*")) e 0)
  in
  check_err "schema mismatch"
    "{\"v\":999,\"experiment\":\"e\",\"metric\":\"m\",\"value\":1}"
    "schema version mismatch";
  check_err "missing version" "{\"experiment\":\"e\",\"metric\":\"m\",\"value\":1}"
    "schema version";
  check_err "missing metric" "{\"v\":1,\"experiment\":\"e\",\"value\":1}" "missing";
  check_err "garbage" "not json at all" ""

let test_benchstore_file_roundtrip () =
  let file = Filename.temp_file "benchstore" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let mk m v = Obs.Benchstore.make ~experiment:"x" ~metric:m v in
      Obs.Benchstore.append file [ mk "a_time" 10.0; mk "b_time" 20.0 ];
      (* append again: latest record per key wins in load_metrics *)
      Obs.Benchstore.append file [ mk "a_time" 11.0 ];
      Alcotest.(check int) "all records kept" 3
        (List.length (Obs.Benchstore.load file));
      let metrics = Obs.Benchstore.load_metrics file in
      Alcotest.(check (list (pair string (float 1e-9))))
        "latest wins, order preserved"
        [ ("x.a_time", 11.0); ("x.b_time", 20.0) ]
        metrics)

(* ------------------------------------------------------------------ *)
(* Comparator thresholds                                               *)
(* ------------------------------------------------------------------ *)

let verdict_of metrics_base metrics_cur name =
  let cs =
    Obs.Benchstore.compare_metrics ~threshold:0.3 ~baseline:metrics_base
      ~current:metrics_cur ()
  in
  (List.find (fun c -> c.Obs.Benchstore.comp_metric = name) cs)
    .Obs.Benchstore.comp_verdict

let test_compare_thresholds () =
  let is_regression = function Obs.Benchstore.Regression _ -> true | _ -> false in
  (* exactly at threshold passes: the inequality is strict *)
  Alcotest.(check bool) "lower-better at threshold passes" true
    (verdict_of [ ("a_time", 100.0) ] [ ("a_time", 130.0) ] "a_time"
    = Obs.Benchstore.Pass);
  Alcotest.(check bool) "lower-better just past threshold fails" true
    (is_regression
       (verdict_of [ ("a_time", 100.0) ] [ ("a_time", 130.5) ] "a_time"));
  (* a 50% slowdown is caught *)
  Alcotest.(check bool) "50% slowdown detected" true
    (is_regression
       (verdict_of [ ("a_time", 100.0) ] [ ("a_time", 150.0) ] "a_time"));
  (* higher-better metrics gate the other direction *)
  Alcotest.(check bool) "speedup at threshold passes" true
    (verdict_of [ ("s.speedup", 2.0) ] [ ("s.speedup", 1.4) ] "s.speedup"
    = Obs.Benchstore.Pass);
  Alcotest.(check bool) "speedup collapse fails" true
    (is_regression
       (verdict_of [ ("s.speedup", 2.0) ] [ ("s.speedup", 1.39) ] "s.speedup"));
  (* informational metrics never regress *)
  Alcotest.(check bool) "informational passes any change" true
    (verdict_of [ ("seed", 42.0) ] [ ("seed", 1000.0) ] "seed"
    = Obs.Benchstore.Pass);
  (* zero baseline on a lower-better metric: any nonzero is a regression *)
  Alcotest.(check bool) "zero baseline regression" true
    (is_regression
       (verdict_of [ ("d.dropped", 0.0) ] [ ("d.dropped", 1.0) ] "d.dropped"));
  Alcotest.(check bool) "zero baseline zero current passes" true
    (verdict_of [ ("d.dropped", 0.0) ] [ ("d.dropped", 0.0) ] "d.dropped"
    = Obs.Benchstore.Pass)

let test_compare_missing_added () =
  let cs =
    Obs.Benchstore.compare_metrics ~threshold:0.3
      ~baseline:[ ("a_time", 1.0); ("gone_time", 2.0) ]
      ~current:[ ("a_time", 1.0); ("new_time", 3.0) ]
      ()
  in
  let v name =
    (List.find (fun c -> c.Obs.Benchstore.comp_metric = name) cs)
      .Obs.Benchstore.comp_verdict
  in
  Alcotest.(check bool) "dropped metric is Missing" true
    (v "gone_time" = Obs.Benchstore.Missing);
  Alcotest.(check bool) "new metric is Added" true
    (v "new_time" = Obs.Benchstore.Added);
  let fails = Obs.Benchstore.failures cs in
  Alcotest.(check int) "only the missing metric fails" 1 (List.length fails);
  let report = Obs.Benchstore.render_report ~threshold:0.3 cs in
  Alcotest.(check bool) "report says FAIL" true
    (try
       ignore (Str.search_forward (Str.regexp_string "FAIL") report 0);
       true
     with Not_found -> false)

let test_direction_heuristics () =
  let d = Obs.Benchstore.direction_of_metric in
  Alcotest.(check bool) "speedup is higher-better" true
    (d "sweep.speedup" = Obs.Benchstore.Higher_better);
  Alcotest.(check bool) "gain is higher-better" true
    (d "netsim.gain" = Obs.Benchstore.Higher_better);
  Alcotest.(check bool) "cycles is lower-better" true
    (d "ev_direct_cycles" = Obs.Benchstore.Lower_better);
  Alcotest.(check bool) "seconds suffix is lower-better" true
    (d "jobs2.seconds" = Obs.Benchstore.Lower_better);
  Alcotest.(check bool) "unknown is informational" true
    (d "topology" = Obs.Benchstore.Informational)

(* ------------------------------------------------------------------ *)
(* JSON snapshot flattening                                            *)
(* ------------------------------------------------------------------ *)

let test_metrics_of_json () =
  let doc =
    "{\"seed\":42,\"rates\":[{\"rate\":0.0,\"cycles\":100},{\"rate\":0.1,\"cycles\":200}],\"name\":\"x\"}"
  in
  let metrics = Obs.Benchstore.metrics_of_json doc in
  Alcotest.(check (list (pair string (float 1e-9))))
    "numeric leaves flattened, strings skipped"
    [
      ("seed", 42.0);
      ("rates.0.rate", 0.0);
      ("rates.0.cycles", 100.0);
      ("rates.1.rate", 0.1);
      ("rates.1.cycles", 200.0);
    ]
    metrics;
  Alcotest.(check bool) "malformed raises Parse_error" true
    (try
       ignore (Obs.Benchstore.metrics_of_json "{broken");
       false
     with Obs.Benchstore.Parse_error _ -> true)

(* ------------------------------------------------------------------ *)
(* The CLI installs a wall clock                                       *)
(* ------------------------------------------------------------------ *)

(* The CLI binary is a declared dune dep, built into the bin/
   directory next to this test's own directory.  A wall-clock Obs
   clock puts Chrome-trace timestamps (microseconds since the epoch)
   far above anything a process-CPU clock could produce. *)
let test_cli_wall_clock () =
  let cli =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/resopt_cli.exe"
  in
  let trace = Filename.temp_file "cli_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove trace)
    (fun () ->
      let cmd =
        Printf.sprintf "%s run example1 --trace %s >/dev/null 2>&1"
          (Filename.quote cli) (Filename.quote trace)
      in
      Alcotest.(check int) "cli exits 0" 0 (Sys.command cmd);
      let ic = open_in trace in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      let re = Str.regexp "\"ts\":[ ]*\\([0-9.e+]+\\)" in
      let _ = Str.search_forward re body 0 in
      let ts = float_of_string (Str.matched_group 1 body) in
      Alcotest.(check bool)
        (Printf.sprintf "first span ts %.0f is epoch-scale microseconds" ts)
        true (ts > 1e12))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "telemetry"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile nearest-rank" `Quick test_percentile;
          Alcotest.test_case "gini" `Quick test_gini;
        ] );
      ( "heatmap",
        [
          Alcotest.test_case "3x3 torus golden" `Quick test_heatmap_golden;
          Alcotest.test_case "mesh and link table" `Quick
            test_heatmap_mesh_and_table;
          Alcotest.test_case "broadcast report golden" `Quick
            test_broadcast_report_golden;
        ] );
      ( "dashboard",
        [
          Alcotest.test_case "html embeds parseable JSON" `Quick test_dashboard_html;
          Alcotest.test_case "script-closing label escaped" `Quick
            test_dashboard_script_safe;
        ] );
      ( "observer",
        [ QCheck_alcotest.to_alcotest prop_no_observer_effect ] );
      ( "benchstore",
        [
          Alcotest.test_case "record round-trip" `Quick test_benchstore_roundtrip;
          Alcotest.test_case "bad lines" `Quick test_benchstore_bad_lines;
          Alcotest.test_case "file round-trip" `Quick test_benchstore_file_roundtrip;
          Alcotest.test_case "thresholds" `Quick test_compare_thresholds;
          Alcotest.test_case "missing and added" `Quick test_compare_missing_added;
          Alcotest.test_case "direction heuristics" `Quick
            test_direction_heuristics;
          Alcotest.test_case "json snapshot flattening" `Quick
            test_metrics_of_json;
        ] );
      ( "cli",
        [ Alcotest.test_case "wall clock installed" `Quick test_cli_wall_clock ] );
    ]
