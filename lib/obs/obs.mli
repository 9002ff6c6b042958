(** Dependency-free instrumentation: spans, metrics, trace export.

    The optimizer pipeline, the network simulators and the parameter
    sweeps all report through this module.  Everything is off by
    default: until {!enable} is called, {!with_span} runs its thunk
    directly and the metric operations return without touching any
    table, so instrumented code pays one boolean test — pipeline
    output (and tier-1 timings) are unchanged when observability is
    not requested.

    When enabled, the module records
    - {e spans}: named, nested wall-clock intervals ({!with_span});
    - {e metrics}: named counters, gauges and histograms;
    - {e points}: explicit time series (e.g. per-cycle queue depths
      from {!Machine.Eventsim});

    and exports them as Chrome trace-event JSON (loadable in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}), a
    machine-readable metrics snapshot, or an ASCII summary table in
    the spirit of {!Machine.Trace}.

    The module keeps ambient state on purpose — instrumentation has to
    be reachable from every layer without threading a handle through
    each signature.  That state is {e one process-wide store}, shared
    by every domain (see "Parallel workers" below).  Within one
    domain the module remains single-threaded, like the rest of the
    code base. *)

(** {1 Clock} *)

val set_clock : (unit -> float) -> unit
(** Install the time source, a function returning {e seconds} as a
    float.  The default is [Sys.time] (processor time), the only clock
    the standard library offers; executables that link [unix] should
    install [Unix.gettimeofday] for real wall-clock spans, and tests
    install a deterministic fake.  The library keeps one clock, so
    spans, {!time_ms} and scheduler profiles ({!Profile}) always share
    it. *)

(** {1 Enabling} *)

val enable : unit -> unit
(** Start recording.  Idempotent. *)

val disable : unit -> unit
(** Stop recording.  Already-recorded events are kept (use {!reset}
    to drop them). *)

val enabled : unit -> bool

val reset : unit -> unit
(** Drop every recorded span, point and metric and reset the nesting
    depth.  Does not change the enabled flag or the clock. *)

(** {1 Spans} *)

type span = {
  span_name : string;
  ts_us : float;  (** start, microseconds *)
  dur_us : float;
  depth : int;  (** nesting level at entry, outermost = 0 *)
  args : (string * string) list;  (** free-form labels, exported verbatim *)
}

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()]; when recording, the interval is
    pushed as a span named [name].  Nesting is tracked with a depth
    counter, so spans opened inside [f] render as children in the
    trace viewer.  The span is recorded even when [f] raises; the
    exception is re-raised. *)

val spans : unit -> span list
(** Completed spans, in completion order (inner spans first). *)

val time_ms : (unit -> 'a) -> 'a * float
(** [time_ms f] runs [f] and returns its result with the elapsed
    milliseconds measured on the installed clock.  Works whether or
    not recording is enabled — this is the primitive {!Resopt.Sweep}
    uses to fill its [time_ms] column. *)

(** {1 Metrics} *)

val incr : ?by:int -> string -> unit
(** Add [by] (default 1) to a named counter, creating it at 0. *)

val counter : string -> int
(** Current value of a counter; 0 if never incremented. *)

val set_gauge : string -> float -> unit
(** Set a named gauge to its latest value. *)

val gauge : string -> float option

val observe : string -> float -> unit
(** Add one observation to a named histogram (count / sum / min /
    max are retained). *)

type histogram = { count : int; sum : float; min_v : float; max_v : float }

val histogram : string -> histogram option

val histogram_percentiles : string -> (float * float * float) option
(** [(p50, p95, p99)] of a named histogram's recorded observations
    (nearest-rank, see {!Telemetry.percentile}); [None] if the
    histogram has no observations.  These also appear as columns in
    {!pp_summary} and as fields in {!metrics_json}. *)

val point : string -> ts:float -> float -> unit
(** Record one sample of an explicit time series, e.g.
    [point "eventsim.queue" ~ts:(float cycle) depth].  Exported as
    Chrome counter events so the series draws as a graph under the
    spans. *)

(** {1 Export} *)

val chrome_trace : unit -> string
(** The recorded spans, points and final counter values as a Chrome
    trace-event JSON document ([{"traceEvents": [...]}]).  Spans
    become complete ("ph":"X") events, points and counters become
    counter ("ph":"C") events.  Any {!Profile} recordings are appended
    as their own track, so [--trace] and [--profile] compose. *)

val metrics_json : unit -> string
(** Counters, gauges, histograms and per-name span aggregates as one
    JSON object — the diffable snapshot [bench/main.ml] writes to
    [BENCH_obs.json]. *)

val write_file : string -> string -> unit
(** [write_file path contents] — tiny helper so callers need not link
    anything for the common "dump the trace" case.  The file is closed
    even when the write raises. *)

val pp_summary : Format.formatter -> unit -> unit
(** ASCII tables: spans aggregated by name (count, total and max
    duration), then counters, gauges and histograms, all sorted by
    name.  This is what [resopt-cli ... --stats] prints. *)

(** {1 Parallel workers}

    Every domain records into the same store, so what a worker records
    is visible to the caller as soon as it is recorded: nothing is
    captured, merged or lost, whether the domain was spawned by {!Par}
    or not.  The store takes a lock only while recording is enabled,
    and records land in arrival order, so under parallelism the order
    of spans, points and histogram samples depends on scheduling while
    counter totals and histogram summaries match a sequential run.  A
    gauge keeps the last value set.  Inside a {!Par} worker slot every
    span gains a [("worker", <slot>)] arg and its depth counts from 0
    (see {!Profile.with_worker}). *)

(** {1 Companion modules}

    The shared JSON writer ({!Json}), deep network telemetry
    ({!Telemetry}), benchmark history + regression comparison
    ({!Benchstore}) and the parallel-scheduler profiler ({!Profile});
    all dependency-free and,
    like the rest of the module, zero-cost until explicitly enabled or
    called. *)

module Json = Json
module Telemetry = Telemetry
module Benchstore = Benchstore
module Profile = Profile
