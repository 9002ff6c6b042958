(** Runtime profiler for the parallel scheduler: per-worker timelines,
    pool lifecycle costs and GC attribution.

    {!Obs} spans answer "where did the time go between phases"; this
    module answers the scheduling questions the spans cannot: how busy
    was each worker domain, what did domain spawns and teardowns cost,
    how large were the task chunks, and how much garbage collection
    each worker induced.  {!Par.run_tasks} records one {!task} per
    chunk it drains (plus [spawn]/[teardown] lifecycle {!event}s),
    {!Resopt.Sweep} and {!Decomp.Search} nest labelled tasks inside
    those chunks for per-cell / per-slice attribution, and the
    renderers below turn the recordings into an ASCII utilization
    report, a collapsed-stack file for flamegraph tools, Chrome-trace
    rows (merged into {!Obs.chrome_trace}) and a diagnosis that
    buckets the wall-clock budget into work / GC / spawn / idle and
    derives a measured [recommended_domains].

    Like the rest of [lib/obs] the module is dependency-free and off
    by default: until {!enable} is called every recording entry point
    is one boolean test, so profiler-off output is byte-identical to a
    build without this module.  Recording is multi-domain by design,
    as in {!Obs} and {!Telemetry}: workers push completed records into
    one mutex-guarded store, and records carry their worker slot
    explicitly. *)

(** {1 Clock} *)

val set_clock : (unit -> float) -> unit
(** Install the time source (seconds as a float), the one clock of
    [lib/obs]: {!Obs.set_clock} is this function, so spans, profiles
    and {!Obs.time_ms} always agree.  Defaults to [Sys.time];
    executables install a wall clock and tests a deterministic fake. *)

(** {1 Enabling} *)

val enable : unit -> unit
(** Start recording.  Idempotent.  The first call also calibrates an
    estimated minor-collection pause on the installed clock (used only
    by the diagnosis GC bucket; 0 under a frozen fake clock). *)

val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Drop every recorded task and event and the pool shape.  Does not
    change the enabled flag, the clock or the GC calibration. *)

(** {1 Recording} *)

val note_pool : jobs:int -> width:int -> unit
(** Record the shape of the pool the next tasks run on: [jobs] as
    requested, [width] domains actually used (see {!Par.Pool.width}).
    The diagnosis uses the last noted shape. *)

val with_worker : int -> (unit -> 'a) -> 'a
(** [with_worker slot f] runs [f] with [slot] as the ambient worker id
    (and a fresh label stack and span depth) for the current domain,
    then restores the previous context, also when [f] raises.  Tasks
    recorded inside carry the slot and {!Obs} spans gain a
    [("worker", <slot>)] arg.  {!Par} wraps each worker slot in it.
    Outside it tasks profile as slot 0 and spans carry no worker arg. *)

val task : ?index:int -> ?size:int -> string -> (unit -> 'a) -> 'a
(** [task label f] runs [f] and records one task: the ambient worker,
    the label stack ([task] nests — an inner task's stack includes the
    enclosing labels), [index] (chunk start index, [-1] = unknown),
    [size] (items covered, default 1), wall start/duration on the
    installed clock, and the [Gc.quick_stat] deltas across [f]
    (minor/major collections, promoted words).  Records even when [f]
    raises; the exception is re-raised.  When disabled this is just
    [f ()]. *)

val event : string -> (unit -> 'a) -> 'a
(** [event kind f] — like {!task} but for pool lifecycle work that is
    not task execution: [kind] is ["spawn"] or ["teardown"].  No GC
    accounting, no stack. *)

(** {1 Recorded data} *)

type task_record = {
  t_worker : int;
  t_stack : string list;  (** outermost label first *)
  t_index : int;
  t_size : int;
  t_start_us : float;
  t_dur_us : float;
  t_minor : int;  (** minor collections during the task *)
  t_major : int;  (** major collections during the task *)
  t_promoted : float;  (** words promoted during the task *)
}

type event_record = {
  e_kind : string;
  e_worker : int;
  e_start_us : float;
  e_dur_us : float;
}

val tasks : unit -> task_record list
(** Completed tasks in recording (completion) order. *)

val events : unit -> event_record list

val pool_shape : unit -> (int * int) option
(** [(jobs, width)] of the last {!note_pool}, if any. *)

(** {1 Analysis} *)

type worker_stat = {
  ws_worker : int;
  ws_tasks : int;  (** top-level tasks only (nested ones are inside) *)
  ws_items : int;
  ws_busy_us : float;
  ws_minor : int;
  ws_major : int;
  ws_promoted : float;
}

val worker_stats : unit -> worker_stat list
(** Per-worker totals over the top-level tasks, sorted by slot. *)

type diagnosis = {
  d_jobs : int;
  d_width : int;
  d_wall_us : float;  (** first record start to last record end *)
  d_budget_us : float;  (** [wall * width]: the time being attributed *)
  d_work_us : float;  (** top-level task time minus the GC estimate *)
  d_gc_us : float;  (** estimated from collection counts (see below) *)
  d_spawn_us : float;  (** spawn and teardown events *)
  d_idle_us : float;  (** budget not covered by any bucket above *)
  d_minor : int;
  d_major : int;
  d_promoted : float;
  d_attributed : float;  (** attributed fraction of the budget, <= 1 *)
  d_recommended : int;  (** measured cost-model argmin, see {!diagnose} *)
}

val diagnose : ?cores:int -> unit -> diagnosis option
(** Bucket the profiled window.  [wall] spans the first record's start
    to the last record's end; the budget is [wall * width] (every
    worker's clock).  [work] is the per-worker top-level busy time
    (nested tasks are not double-counted) minus the GC estimate, [gc]
    prices the recorded collection counts at the pause cost calibrated
    by {!enable}, [spawn] sums the lifecycle events, and [idle] is
    the uncovered remainder — on an oversubscribed machine this is
    where the missing speedup shows up.  [d_recommended] minimizes the
    measured cost model
    [spawn_per_domain * (d - 1) + items * work_per_item / min d cores]
    over [d]; [cores] defaults to [Domain.recommended_domain_count ()]
    and is overridable for deterministic tests.  [None] when nothing
    was recorded. *)

(** {1 Renderers} *)

val utilization_report : ?cores:int -> unit -> string
(** The full ASCII report: pool shape and wall time, per-worker
    busy% / task / item / GC table, a Gantt-style busy timeline (one
    row per worker), the task-granularity percentiles (p50/p95/p99 via
    {!Telemetry.percentile}), lifecycle cost lines and the
    {!diagnose} breakdown.  Empty string when nothing was recorded. *)

val collapsed : unit -> string
(** Collapsed-stack text for flamegraph tools: one
    [workerN;label;label count] line per distinct stack, exclusive
    time in integer microseconds, sorted.  Lines whose exclusive time
    rounds to zero are kept at 0 only if they have no children. *)

val chrome_events : unit -> string list
(** Tasks and lifecycle events as Chrome trace-event JSON objects
    (["ph":"X"], one [tid] per worker, pid 3 so they render as their
    own track under the {!Obs} spans).  {!Obs.chrome_trace} appends
    these automatically, so [--trace] and [--profile] compose. *)
