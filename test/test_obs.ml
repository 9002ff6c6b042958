(* Tests for the Obs instrumentation library (spans, metrics,
   exporters), the Eventsim per-cycle sampler, the Sweep time_ms
   column, and the Machine.Trace renderers. *)

(* A deterministic clock: each reading advances time by one second, so
   every span has a predictable, non-zero duration. *)
let install_fake_clock () =
  let t = ref 0.0 in
  Obs.set_clock (fun () ->
      t := !t +. 1.0;
      !t)

let fresh () =
  Obs.reset ();
  Obs.enable ();
  install_fake_clock ()

let teardown () =
  Obs.reset ();
  Obs.disable ();
  Obs.set_clock Sys.time

(* ------------------------------------------------------------------ *)
(* A minimal JSON well-formedness checker (recursive descent).         *)
(* ------------------------------------------------------------------ *)

exception Bad_json of string

let check_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad unicode escape"
          done
        | _ -> fail "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  in
  let parse_number () =
    let digits () =
      match peek () with
      | Some ('0' .. '9') ->
        while (match peek () with Some ('0' .. '9') -> true | _ -> false) do
          advance ()
        done
      | _ -> fail "expected digit"
    in
    if peek () = Some '-' then advance ();
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> parse_string ()
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else begin
        let rec members () =
          skip_ws ();
          parse_string ();
          skip_ws ();
          expect ':';
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        members ()
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else begin
        let rec elements () =
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        elements ()
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some 't' -> String.iter expect "true"
    | Some 'f' -> String.iter expect "false"
    | Some 'n' -> String.iter expect "null"
    | _ -> fail "unexpected character"
  in
  parse_value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let valid_json name s =
  match check_json s with
  | () -> ()
  | exception Bad_json msg -> Alcotest.failf "%s: invalid JSON: %s\n%s" name msg s

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  fresh ();
  let v =
    Obs.with_span "outer" (fun () ->
        Obs.with_span "inner" (fun () -> 21) * 2)
  in
  Alcotest.(check int) "value passed through" 42 v;
  match Obs.spans () with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner first (completion order)" "inner"
      inner.Obs.span_name;
    Alcotest.(check string) "outer second" "outer" outer.Obs.span_name;
    Alcotest.(check int) "outer depth" 0 outer.Obs.depth;
    Alcotest.(check int) "inner depth" 1 inner.Obs.depth;
    Alcotest.(check bool) "inner starts after outer" true
      (inner.Obs.ts_us >= outer.Obs.ts_us);
    Alcotest.(check bool) "inner contained in outer" true
      (inner.Obs.ts_us +. inner.Obs.dur_us
      <= outer.Obs.ts_us +. outer.Obs.dur_us);
    teardown ()
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_span_exception () =
  fresh ();
  (try
     Obs.with_span "boom" (fun () -> failwith "expected")
   with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1 (List.length (Obs.spans ()));
  (* depth must be restored so later spans are not mis-nested *)
  Obs.with_span "after" (fun () -> ());
  let after = List.nth (Obs.spans ()) 1 in
  Alcotest.(check int) "depth restored" 0 after.Obs.depth;
  teardown ()

let test_disabled_is_noop () =
  Obs.reset ();
  Obs.disable ();
  let v = Obs.with_span "invisible" (fun () -> 7) in
  Obs.incr "invisible_counter";
  Obs.observe "invisible_histo" 1.0;
  Obs.set_gauge "invisible_gauge" 1.0;
  Obs.point "invisible_point" ~ts:0.0 1.0;
  Alcotest.(check int) "value passed through" 7 v;
  Alcotest.(check int) "no spans" 0 (List.length (Obs.spans ()));
  Alcotest.(check int) "no counter" 0 (Obs.counter "invisible_counter");
  Alcotest.(check bool) "no histogram" true (Obs.histogram "invisible_histo" = None);
  Alcotest.(check bool) "no gauge" true (Obs.gauge "invisible_gauge" = None)

let test_time_ms_works_when_disabled () =
  Obs.reset ();
  Obs.disable ();
  install_fake_clock ();
  let v, ms = Obs.time_ms (fun () -> "done") in
  Alcotest.(check string) "value" "done" v;
  (* fake clock: one tick of 1 s between the two readings *)
  Alcotest.(check (float 1e-6)) "elapsed" 1000.0 ms;
  teardown ()

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_arithmetic () =
  fresh ();
  Alcotest.(check int) "unset counter is 0" 0 (Obs.counter "c");
  Obs.incr "c";
  Obs.incr "c";
  Obs.incr ~by:40 "c";
  Alcotest.(check int) "1 + 1 + 40" 42 (Obs.counter "c");
  Obs.incr ~by:(-2) "c";
  Alcotest.(check int) "negative increments allowed" 40 (Obs.counter "c");
  teardown ()

let test_gauge_and_histogram () =
  fresh ();
  Obs.set_gauge "g" 1.5;
  Obs.set_gauge "g" 2.5;
  Alcotest.(check (option (float 1e-9))) "gauge keeps last" (Some 2.5) (Obs.gauge "g");
  List.iter (Obs.observe "h") [ 4.0; 1.0; 7.0 ];
  (match Obs.histogram "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check int) "count" 3 h.Obs.count;
    Alcotest.(check (float 1e-9)) "sum" 12.0 h.Obs.sum;
    Alcotest.(check (float 1e-9)) "min" 1.0 h.Obs.min_v;
    Alcotest.(check (float 1e-9)) "max" 7.0 h.Obs.max_v);
  teardown ()

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let record_some_activity () =
  fresh ();
  Obs.with_span "phase \"one\"\n" ~args:[ ("key", "va\\lue") ] (fun () ->
      Obs.with_span "phase2" (fun () -> Obs.incr "work.items"));
  Obs.point "queue" ~ts:10.0 3.0;
  Obs.set_gauge "temp" 36.6;
  Obs.observe "lat" 5.0

let test_chrome_trace_json () =
  record_some_activity ();
  let json = Obs.chrome_trace () in
  valid_json "chrome_trace" json;
  Alcotest.(check bool) "has traceEvents" true
    (String.length json > 20 && String.sub json 0 16 = "{\"traceEvents\":[");
  teardown ()

let test_metrics_json () =
  record_some_activity ();
  valid_json "metrics_json" (Obs.metrics_json ());
  teardown ()

(* The one escaper every lib/obs exporter shares.  '<' passes through:
   the HTML dashboard rewrites it in its payload, not here. *)
let test_json_escape_golden () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) (String.escaped input) expected
        (Obs.Json.escape input))
    [
      ("\"", "\\\"");
      ("\\", "\\\\");
      ("\n", "\\n");
      ("\r", "\\r");
      ("\t", "\\t");
      ("\x01", "\\u0001");
      ("<", "<");
      ("plain ASCII, 0-9 ~!", "plain ASCII, 0-9 ~!");
    ];
  Alcotest.(check string) "str quotes" "\"a\\\"b\"" (Obs.Json.str "a\"b");
  Alcotest.(check string) "float" "1.500" (Obs.Json.float 1.5);
  Alcotest.(check string) "non-finite float" "0.000" (Obs.Json.float Float.nan);
  Alcotest.(check string) "obj" "{\"k\":1,\"q\\\"\":[]}"
    (Obs.Json.obj [ ("k", "1"); ("q\"", "[]") ])

let test_summary_nonempty () =
  record_some_activity ();
  let s = Format.asprintf "%a" Obs.pp_summary () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("summary mentions " ^ needle) true
        (let re = Str.regexp_string needle in
         try
           ignore (Str.search_forward re s 0);
           true
         with Not_found -> false))
    [ "spans:"; "counters:"; "gauges:"; "histograms:"; "work.items"; "phase2" ];
  teardown ()

let test_reset () =
  record_some_activity ();
  Obs.reset ();
  Alcotest.(check int) "no spans after reset" 0 (List.length (Obs.spans ()));
  Alcotest.(check int) "no counters after reset" 0 (Obs.counter "work.items");
  Alcotest.(check bool) "still enabled" true (Obs.enabled ());
  teardown ()

(* ------------------------------------------------------------------ *)
(* Pipeline integration: phases visible, counters consistent           *)
(* ------------------------------------------------------------------ *)

let test_pipeline_spans () =
  fresh ();
  let nest = Nestir.Paper_examples.example1 () in
  let r = Resopt.Pipeline.run ~m:2 nest in
  let names = List.map (fun s -> s.Obs.span_name) (Obs.spans ()) in
  List.iter
    (fun phase ->
      Alcotest.(check bool) ("span " ^ phase) true (List.mem phase names))
    [
      "alloc.access_graph";
      "alloc.branching";
      "alloc.readditions";
      "alloc.materialize";
      "pipeline.alloc";
      "pipeline.classify";
      "pipeline.rotate";
      "pipeline.decompose";
      "pipeline.run";
    ];
  Alcotest.(check int) "rotations counter matches result"
    (List.length r.Resopt.Pipeline.rotations)
    (Obs.counter "rotations_applied");
  Alcotest.(check bool) "some edges localized" true (Obs.counter "edges_localized" > 0);
  teardown ()

(* ------------------------------------------------------------------ *)
(* Eventsim sampler                                                    *)
(* ------------------------------------------------------------------ *)

let test_eventsim_sampler () =
  (* with Obs enabled, the link state is sampled every 64 cycles into
     the eventsim.* point series *)
  fresh ();
  let topo = Machine.Topology.mesh2d ~p:4 ~q:4 in
  let msgs =
    List.init 12 (fun i ->
        Machine.Message.make ~src:(i mod 4) ~dst:(15 - (i mod 4)) ~bytes:512)
  in
  let r =
    Machine.Eventsim.run topo Machine.Eventsim.default_params (Reference.raw topo msgs)
  in
  Alcotest.(check int) "all delivered" 12 r.Machine.Eventsim.delivered;
  Alcotest.(check bool) "eventsim counters" true (Obs.counter "eventsim.runs" = 1);
  let json = Obs.chrome_trace () in
  valid_json "eventsim trace" json;
  let re = Str.regexp {|"name":"eventsim.in_flight","ph":"C","ts":\([0-9.]+\)|} in
  let rec stamps pos =
    match Str.search_forward re json pos with
    | p ->
      let ts = float_of_string (Str.matched_group 1 json) in
      ts :: stamps (p + 1)
    | exception Not_found -> []
  in
  let ts = stamps 0 in
  Alcotest.(check bool) "got samples" true (List.length ts > 1);
  Alcotest.(check (list (float 0.0))) "one sample per 64 cycles"
    (List.init (List.length ts) (fun k -> float_of_int (64 * k)))
    ts;
  teardown ()

(* ------------------------------------------------------------------ *)
(* Sweep time_ms                                                       *)
(* ------------------------------------------------------------------ *)

let test_sweep_time_ms () =
  teardown ();
  let rows =
    Resopt.Sweep.run
      ~workloads:[ Resopt.Workloads.find "example1" ]
      ~models:[ Machine.Models.cm5 () ] ()
  in
  Alcotest.(check int) "one row" 1 (List.length rows);
  let row = List.hd rows in
  Alcotest.(check bool) "time_ms non-negative" true (row.Resopt.Sweep.time_ms >= 0.0);
  let table = Format.asprintf "%a" Resopt.Sweep.pp_table rows in
  Alcotest.(check bool) "table has time column" true
    (try
       ignore (Str.search_forward (Str.regexp_string "time ms") table 0);
       true
     with Not_found -> false)

(* ------------------------------------------------------------------ *)
(* Machine.Trace renderers                                             *)
(* ------------------------------------------------------------------ *)

let test_load_heatmap () =
  let topo = Machine.Topology.mesh2d ~p:2 ~q:4 in
  let msgs =
    [
      Machine.Message.make ~src:0 ~dst:5 ~bytes:100;
      Machine.Message.make ~src:3 ~dst:1 ~bytes:50;
      Machine.Message.make ~src:7 ~dst:7 ~bytes:999 (* local: excluded *);
    ]
  in
  let map = Machine.Trace.load_heatmap topo (Machine.Message.of_list msgs) in
  let lines = String.split_on_char '\n' (String.trim map) in
  Alcotest.(check int) "one row per mesh row" 2 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check int) "4 columns, space-separated" 7 (String.length l))
    lines;
  (* rank 0 is the peak sender -> glyph 9; rank 3 sent half -> mid glyph;
     everyone else (incl. the local-only rank 7) is idle -> '.' *)
  let glyph rank =
    let row = List.nth lines (rank / 4) in
    row.[2 * (rank mod 4)]
  in
  Alcotest.(check char) "peak sender" '9' (glyph 0);
  Alcotest.(check char) "half-load sender" '5' (glyph 3);
  Alcotest.(check char) "idle node" '.' (glyph 1);
  Alcotest.(check char) "local-only node" '.' (glyph 7)

let test_load_heatmap_all_idle () =
  let topo = Machine.Topology.mesh2d ~p:2 ~q:2 in
  let map = Machine.Trace.load_heatmap topo (Machine.Message.of_list []) in
  String.iter
    (fun c ->
      Alcotest.(check bool) "only idle glyphs" true
        (c = '.' || c = ' ' || c = '\n'))
    map

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_heatmap () =
  let topo = Machine.Topology.mesh2d ~p:2 ~q:2 in
  let msgs = [ Machine.Message.make ~src:0 ~dst:3 ~bytes:100 ] in
  let map = Machine.Trace.load_heatmap topo (Machine.Message.of_list msgs) in
  (* node 0 hot, others idle; 2 columns -> two lines *)
  Alcotest.(check bool) "node 0 marked" true (map.[0] <> '.');
  Alcotest.(check int) "two lines" 2
    (List.length (String.split_on_char '\n' (String.trim map)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "time_ms when disabled" `Quick
            test_time_ms_works_when_disabled;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter arithmetic" `Quick test_counter_arithmetic;
          Alcotest.test_case "gauge and histogram" `Quick test_gauge_and_histogram;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace JSON" `Quick test_chrome_trace_json;
          Alcotest.test_case "metrics json" `Quick test_metrics_json;
          Alcotest.test_case "json escape golden" `Quick test_json_escape_golden;
          Alcotest.test_case "ascii summary" `Quick test_summary_nonempty;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "integration",
        [
          Alcotest.test_case "pipeline phase spans" `Quick test_pipeline_spans;
          Alcotest.test_case "eventsim sampler" `Quick test_eventsim_sampler;
          Alcotest.test_case "sweep time_ms" `Quick test_sweep_time_ms;
        ] );
      ( "trace-render",
        [
          Alcotest.test_case "load heatmap" `Quick test_load_heatmap;
          Alcotest.test_case "heatmap all idle" `Quick test_load_heatmap_all_idle;
        ] );
      ("trace", [ Alcotest.test_case "heatmap" `Quick test_trace_heatmap ]);
    ]
