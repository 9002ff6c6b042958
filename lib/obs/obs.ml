(* Instrumentation state, one collector per domain.  The hot-path
   contract: every recording entry point first tests [enabled_flag],
   so a disabled build does no allocation and no table lookup (not
   even the domain-local-storage read).

   Each domain records into its own collector (held in [Domain.DLS]),
   so parallel workers spawned by [Par] never contend on the
   registries; [sink] gives a worker slot a fresh collector and folds
   it back into the caller's registry at join. *)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let clock = ref Sys.time

let set_clock f =
  clock := f;
  (* the profiler keeps its own clock so it can be used without spans;
     installing one time source here keeps both sinks on it *)
  Profile.set_clock f

let now_us () = !clock () *. 1e6

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

type collector = {
  mutable span_log : span list; (* reverse completion order *)
  mutable point_log : series_point list; (* reverse order *)
  mutable cur_depth : int;
  counters : (string, int) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
  histos : (string, histogram) Hashtbl.t;
  histo_samples : (string, float list) Hashtbl.t; (* reverse order *)
}

let new_collector () =
  {
    span_log = [];
    point_log = [];
    cur_depth = 0;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histos = Hashtbl.create 16;
    histo_samples = Hashtbl.create 16;
  }

(* The main domain's slot is the parent registry every exporter reads;
   a freshly spawned domain starts with an empty collector of its own. *)
let collector_key : collector Domain.DLS.key = Domain.DLS.new_key new_collector

let cur () = Domain.DLS.get collector_key

let enable () = enabled_flag := true
let disable () = enabled_flag := false
let enabled () = !enabled_flag

let reset () =
  let c = cur () in
  c.span_log <- [];
  c.point_log <- [];
  c.cur_depth <- 0;
  Hashtbl.reset c.counters;
  Hashtbl.reset c.gauges;
  Hashtbl.reset c.histos;
  Hashtbl.reset c.histo_samples

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let with_span ?(args = []) name f =
  if not !enabled_flag then f ()
  else begin
    let c = cur () in
    let depth = c.cur_depth in
    c.cur_depth <- depth + 1;
    let t0 = now_us () in
    let finish () =
      let t1 = now_us () in
      c.cur_depth <- depth;
      c.span_log <-
        { span_name = name; ts_us = t0; dur_us = t1 -. t0; depth; args }
        :: c.span_log
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let spans () = List.rev (cur ()).span_log

let time_ms f =
  let t0 = !clock () in
  let v = f () in
  (v, (!clock () -. t0) *. 1e3)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let incr ?(by = 1) name =
  if !enabled_flag then
    let counters = (cur ()).counters in
    Hashtbl.replace counters name
      (by + Option.value ~default:0 (Hashtbl.find_opt counters name))

let counter name =
  Option.value ~default:0 (Hashtbl.find_opt (cur ()).counters name)

let set_gauge name v = if !enabled_flag then Hashtbl.replace (cur ()).gauges name v

let gauge name = Hashtbl.find_opt (cur ()).gauges name

let observe name v =
  if !enabled_flag then
    let histos = (cur ()).histos in
    let h =
      match Hashtbl.find_opt histos name with
      | None -> { count = 1; sum = v; min_v = v; max_v = v }
      | Some h ->
        {
          count = h.count + 1;
          sum = h.sum +. v;
          min_v = min h.min_v v;
          max_v = max h.max_v v;
        }
    in
    Hashtbl.replace histos name h;
    let samples = (cur ()).histo_samples in
    Hashtbl.replace samples name
      (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let histogram name = Hashtbl.find_opt (cur ()).histos name

let histo_array c name =
  Array.of_list (Option.value ~default:[] (Hashtbl.find_opt c.histo_samples name))

let histogram_percentiles name =
  let c = cur () in
  match histo_array c name with
  | [||] -> None
  | xs ->
    Some
      ( Telemetry.percentile xs 50.0,
        Telemetry.percentile xs 95.0,
        Telemetry.percentile xs 99.0 )

let point name ~ts v =
  if !enabled_flag then
    let c = cur () in
    c.point_log <- { point_name = name; point_ts = ts; value = v } :: c.point_log

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
  let c = cur () in
  let spans = List.rev c.span_log in
  let points = List.rev c.point_log in
  let end_ts =
    List.fold_left (fun acc (s : span) -> Float.max acc (s.ts_us +. s.dur_us)) 0.0 spans
  in
  let events =
    List.map span_event spans
    @ List.map point_event points
    @ List.map
        (fun (k, v) -> counter_event ~ts:end_ts k v)
        (sorted_bindings c.counters)
    @ Profile.chrome_events ()
  in
  "{\"traceEvents\":[" ^ String.concat "," events ^ "],\"displayTimeUnit\":\"ms\"}"

let jsonl () =
  let c = cur () in
  let buf = Buffer.create 1024 in
  let line s = Buffer.add_string buf (s ^ "\n") in
  List.iter
    (fun (s : span) ->
      line
        (Json.obj
           ([
              ("type", Json.str "span");
              ("name", Json.str s.span_name);
              ("ts_us", Json.float s.ts_us);
              ("dur_us", Json.float s.dur_us);
              ("depth", string_of_int s.depth);
            ]
           @ if s.args = [] then [] else [ ("args", args_obj s.args) ])))
    (List.rev c.span_log);
  List.iter
    (fun (p : series_point) ->
      line
        (Json.obj
           [
             ("type", Json.str "point");
             ("name", Json.str p.point_name);
             ("ts", Json.float p.point_ts);
             ("value", Json.float p.value);
           ]))
    (List.rev c.point_log);
  List.iter
    (fun (k, v) ->
      line
        (Json.obj
           [ ("type", Json.str "counter"); ("name", Json.str k); ("value", string_of_int v) ]))
    (sorted_bindings c.counters);
  List.iter
    (fun (k, v) ->
      line
        (Json.obj
           [ ("type", Json.str "gauge"); ("name", Json.str k); ("value", Json.float v) ]))
    (sorted_bindings c.gauges);
  List.iter
    (fun (k, (h : histogram)) ->
      line
        (Json.obj
           [
             ("type", Json.str "histogram");
             ("name", Json.str k);
             ("count", string_of_int h.count);
             ("sum", Json.float h.sum);
             ("min", Json.float h.min_v);
             ("max", Json.float h.max_v);
           ]))
    (sorted_bindings c.histos);
  Buffer.contents buf

(* per-name span aggregates: count, total duration, max duration *)
let span_aggregates () =
  let tbl : (string, int * float * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : span) ->
      let n, tot, mx =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.span_name)
      in
      Hashtbl.replace tbl s.span_name
        (n + 1, tot +. s.dur_us, Float.max mx s.dur_us))
    (cur ()).span_log;
  sorted_bindings tbl

let metrics_json () =
  let c = cur () in
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
          (span_aggregates ()) );
    ]

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let pp_summary ppf () =
  let c = cur () in
  let aggs = span_aggregates () in
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
(* Parallel workers                                                    *)
(* ------------------------------------------------------------------ *)

(* Fold a worker's collector [w] into the current domain's: both logs
   are kept in reverse order, so rev_map + rev_append keeps the
   worker's internal ordering and places its events after everything
   already recorded here. *)
let absorb ~worker w =
  let c = cur () in
  let tag = ("worker", string_of_int worker) in
  c.span_log <-
    List.rev_append
      (List.rev_map (fun s -> { s with args = tag :: s.args }) w.span_log)
      c.span_log;
  c.point_log <- List.rev_append (List.rev w.point_log) c.point_log;
  Hashtbl.iter
    (fun k v ->
      Hashtbl.replace c.counters k
        (v + Option.value ~default:0 (Hashtbl.find_opt c.counters k)))
    w.counters;
  Hashtbl.iter (fun k v -> Hashtbl.replace c.gauges k v) w.gauges;
  Hashtbl.iter
    (fun k (h : histogram) ->
      let merged =
        match Hashtbl.find_opt c.histos k with
        | None -> h
        | Some g ->
          {
            count = g.count + h.count;
            sum = g.sum +. h.sum;
            min_v = min g.min_v h.min_v;
            max_v = max g.max_v h.max_v;
          }
      in
      Hashtbl.replace c.histos k merged)
    w.histos;
  Hashtbl.iter
    (fun k samples ->
      Hashtbl.replace c.histo_samples k
        (samples @ Option.value ~default:[] (Hashtbl.find_opt c.histo_samples k)))
    w.histo_samples

let sink : Sink.t =
  {
    name = "obs";
    capture =
      (fun ~worker f ->
        if not !enabled_flag then (f (), ignore)
        else begin
          let fresh = new_collector () in
          let v = Sink.with_dls collector_key fresh f in
          (v, fun () -> absorb ~worker fresh)
        end);
  }

(* ------------------------------------------------------------------ *)
(* Companion modules                                                   *)
(* ------------------------------------------------------------------ *)

module Json = Json
module Sink = Sink
module Telemetry = Telemetry
module Benchstore = Benchstore
module Profile = Profile
