(* Instrumentation state, one process-wide store.  The hot-path
   contract: every recording entry point first tests [enabled_flag],
   so a disabled build does no allocation, takes no lock and touches
   no table.

   Enabled, every domain records into the same store under [lock], in
   arrival order, so nothing is lost whichever domain records and
   nothing needs merging.  The span nesting depth and the worker slot
   a span is tagged with come from the per-domain context in
   [Ambient], which [Par] sets once per worker slot. *)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let set_clock f = Ambient.clock := f
let now_us = Ambient.now_us

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

let enabled_flag = ref false

type span = {
  span_name : string;
  ts_us : float;
  dur_us : float;
  depth : int;
  args : (string * string) list;
}

type series_point = { point_name : string; point_ts : float; value : float }

type histogram = { count : int; sum : float; min_v : float; max_v : float }

type store = {
  mutable span_log : span list; (* reverse completion order *)
  mutable point_log : series_point list; (* reverse order *)
  counters : (string, int) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
  histos : (string, histogram) Hashtbl.t;
  histo_samples : (string, float list) Hashtbl.t; (* reverse order *)
}

let store =
  {
    span_log = [];
    point_log = [];
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histos = Hashtbl.create 16;
    histo_samples = Hashtbl.create 16;
  }

let lock = Mutex.create ()
let locked f = Mutex.protect lock (fun () -> f store)

let enable () = enabled_flag := true
let disable () = enabled_flag := false
let enabled () = !enabled_flag

let reset () =
  locked (fun c ->
      c.span_log <- [];
      c.point_log <- [];
      Hashtbl.reset c.counters;
      Hashtbl.reset c.gauges;
      Hashtbl.reset c.histos;
      Hashtbl.reset c.histo_samples);
  (Ambient.get ()).depth <- 0

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let with_span ?(args = []) name f =
  if not !enabled_flag then f ()
  else begin
    let ctx = Ambient.get () in
    let depth = ctx.depth in
    ctx.depth <- depth + 1;
    let args =
      match ctx.worker with
      | Some w -> ("worker", string_of_int w) :: args
      | None -> args
    in
    let t0 = now_us () in
    let finish () =
      let t1 = now_us () in
      ctx.depth <- depth;
      let s = { span_name = name; ts_us = t0; dur_us = t1 -. t0; depth; args } in
      locked (fun c -> c.span_log <- s :: c.span_log)
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let spans () = locked (fun c -> List.rev c.span_log)

let time_ms f =
  let t0 = !Ambient.clock () in
  let v = f () in
  (v, (!Ambient.clock () -. t0) *. 1e3)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let incr ?(by = 1) name =
  if !enabled_flag then
    locked (fun c ->
        Hashtbl.replace c.counters name
          (by + Option.value ~default:0 (Hashtbl.find_opt c.counters name)))

let counter name =
  locked (fun c -> Option.value ~default:0 (Hashtbl.find_opt c.counters name))

let set_gauge name v =
  if !enabled_flag then locked (fun c -> Hashtbl.replace c.gauges name v)

let gauge name = locked (fun c -> Hashtbl.find_opt c.gauges name)

let observe name v =
  if !enabled_flag then
    locked (fun c ->
        let h =
          match Hashtbl.find_opt c.histos name with
          | None -> { count = 1; sum = v; min_v = v; max_v = v }
          | Some h ->
            {
              count = h.count + 1;
              sum = h.sum +. v;
              min_v = min h.min_v v;
              max_v = max h.max_v v;
            }
        in
        Hashtbl.replace c.histos name h;
        Hashtbl.replace c.histo_samples name
          (v :: Option.value ~default:[] (Hashtbl.find_opt c.histo_samples name)))

let histogram name = locked (fun c -> Hashtbl.find_opt c.histos name)

let histo_array c name =
  Array.of_list (Option.value ~default:[] (Hashtbl.find_opt c.histo_samples name))

let histogram_percentiles name =
  match locked (fun c -> histo_array c name) with
  | [||] -> None
  | xs ->
    Some
      ( Telemetry.percentile xs 50.0,
        Telemetry.percentile xs 95.0,
        Telemetry.percentile xs 99.0 )

let point name ~ts v =
  if !enabled_flag then
    locked (fun c ->
        c.point_log <- { point_name = name; point_ts = ts; value = v } :: c.point_log)

(* ------------------------------------------------------------------ *)
(* JSON helpers                                                        *)
(* ------------------------------------------------------------------ *)

let args_obj args = Json.obj (List.map (fun (k, v) -> (k, Json.str v)) args)

let sorted_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let span_event (s : span) =
  Json.obj
    [
      ("name", Json.str s.span_name);
      ("cat", Json.str "obs");
      ("ph", Json.str "X");
      ("ts", Json.float s.ts_us);
      ("dur", Json.float s.dur_us);
      ("pid", "1");
      ("tid", "1");
      ("args", args_obj (("depth", string_of_int s.depth) :: s.args));
    ]

(* Time-series points live on their own pid so the viewer draws them
   as counter tracks below the span flame graph. *)
let point_event (p : series_point) =
  Json.obj
    [
      ("name", Json.str p.point_name);
      ("ph", Json.str "C");
      ("ts", Json.float p.point_ts);
      ("pid", "2");
      ("args", Json.obj [ ("value", Json.float p.value) ]);
    ]

let counter_event ~ts name v =
  Json.obj
    [
      ("name", Json.str name);
      ("ph", Json.str "C");
      ("ts", Json.float ts);
      ("pid", "1");
      ("args", Json.obj [ ("value", string_of_int v) ]);
    ]

let chrome_trace () =
  let spans, points, counters =
    locked (fun c -> (List.rev c.span_log, List.rev c.point_log, sorted_bindings c.counters))
  in
  let end_ts =
    List.fold_left (fun acc (s : span) -> Float.max acc (s.ts_us +. s.dur_us)) 0.0 spans
  in
  let events =
    List.map span_event spans
    @ List.map point_event points
    @ List.map (fun (k, v) -> counter_event ~ts:end_ts k v) counters
    @ Profile.chrome_events ()
  in
  "{\"traceEvents\":[" ^ String.concat "," events ^ "],\"displayTimeUnit\":\"ms\"}"

(* per-name span aggregates: count, total duration, max duration *)
let span_aggregates c =
  let tbl : (string, int * float * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : span) ->
      let n, tot, mx =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.span_name)
      in
      Hashtbl.replace tbl s.span_name
        (n + 1, tot +. s.dur_us, Float.max mx s.dur_us))
    c.span_log;
  sorted_bindings tbl

let metrics_json () =
  locked @@ fun c ->
  let field_list to_json bindings =
    Json.obj (List.map (fun (k, v) -> (k, to_json v)) bindings)
  in
  Json.obj
    [
      ("counters", field_list string_of_int (sorted_bindings c.counters));
      ("gauges", field_list Json.float (sorted_bindings c.gauges));
      ( "histograms",
        Json.obj
          (List.map
             (fun (k, (h : histogram)) ->
               let xs = histo_array c k in
               ( k,
                 Json.obj
                   [
                     ("count", string_of_int h.count);
                     ("sum", Json.float h.sum);
                     ("min", Json.float h.min_v);
                     ("max", Json.float h.max_v);
                     ("p50", Json.float (Telemetry.percentile xs 50.0));
                     ("p95", Json.float (Telemetry.percentile xs 95.0));
                     ("p99", Json.float (Telemetry.percentile xs 99.0));
                   ] ))
             (sorted_bindings c.histos)) );
      ( "spans",
        field_list
          (fun (n, tot, mx) ->
            Json.obj
              [
                ("count", string_of_int n);
                ("total_us", Json.float tot);
                ("max_us", Json.float mx);
              ])
          (span_aggregates c) );
    ]

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

let pp_summary ppf () =
  locked @@ fun c ->
  let aggs = span_aggregates c in
  if aggs <> [] then begin
    Format.fprintf ppf "spans:@\n";
    Format.fprintf ppf "  %-32s %6s %12s %12s@\n" "name" "count" "total ms" "max ms";
    List.iter
      (fun (name, (n, tot, mx)) ->
        Format.fprintf ppf "  %-32s %6d %12.3f %12.3f@\n" name n (tot /. 1e3)
          (mx /. 1e3))
      aggs
  end;
  let cs = sorted_bindings c.counters in
  if cs <> [] then begin
    Format.fprintf ppf "counters:@\n";
    List.iter (fun (k, v) -> Format.fprintf ppf "  %-32s %12d@\n" k v) cs
  end;
  let gs = sorted_bindings c.gauges in
  if gs <> [] then begin
    Format.fprintf ppf "gauges:@\n";
    List.iter (fun (k, v) -> Format.fprintf ppf "  %-32s %12.3f@\n" k v) gs
  end;
  let hs = sorted_bindings c.histos in
  if hs <> [] then begin
    Format.fprintf ppf "histograms:@\n";
    Format.fprintf ppf "  %-32s %6s %10s %10s %10s %10s %10s %10s@\n" "name"
      "count" "mean" "min" "p50" "p95" "p99" "max";
    List.iter
      (fun (k, (h : histogram)) ->
        let xs = histo_array c k in
        Format.fprintf ppf "  %-32s %6d %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f@\n"
          k h.count
          (h.sum /. float_of_int h.count)
          h.min_v
          (Telemetry.percentile xs 50.0)
          (Telemetry.percentile xs 95.0)
          (Telemetry.percentile xs 99.0)
          h.max_v)
      hs
  end;
  if aggs = [] && cs = [] && gs = [] && hs = [] then
    Format.fprintf ppf "no observations recorded@\n"

(* ------------------------------------------------------------------ *)
(* Companion modules                                                   *)
(* ------------------------------------------------------------------ *)

module Json = Json
module Telemetry = Telemetry
module Benchstore = Benchstore
module Profile = Profile
