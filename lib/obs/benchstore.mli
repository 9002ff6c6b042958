(** Benchmark history and regression detection.

    A versioned record schema for benchmark results, an append-only
    JSONL history file ([BENCH_HISTORY.jsonl]) and a comparator with
    per-metric relative thresholds.  [bench --record] appends records;
    [resopt-cli bench-compare BASELINE] loads two metric sets (JSONL
    histories or the committed [BENCH_*.json] snapshots — both are
    auto-detected) and exits nonzero on regression.

    Dependency-free like the rest of [lib/obs]: the JSON reader below
    is a private minimal parser, not a package. *)

(** {1 Records} *)

type record = {
  version : int;
  experiment : string;  (** bench experiment name, e.g. ["faultbench"] *)
  metric : string;  (** dotted metric path, e.g. ["rates.0.ev_direct_cycles"] *)
  value : float;
  jobs : int option;  (** worker count, when the experiment is parallel *)
  faults : string;  (** fault-spec string, [""] when none *)
  git_rev : string;  (** passed in by the caller, never shelled out here *)
  timestamp : string;  (** ISO-8601 UTC, passed in by the caller *)
}

val make :
  ?jobs:int ->
  ?faults:string ->
  git_rev:string ->
  timestamp:string ->
  experiment:string ->
  metric:string ->
  float ->
  record

val to_line : record -> string
(** One JSONL line (no trailing newline). *)

val of_line : string -> (record, string) result
(** Parse one line; [Error] on malformed JSON, missing fields or a
    schema-version mismatch.  Keys it does not know are ignored, so
    older history lines, such as those carrying a ["cache"] flag,
    still load. *)

val append : string -> record list -> unit
(** [append file records] appends one line per record, creating the
    file if needed. *)

val load : string -> record list
(** All parseable records of a JSONL history, file order.  Raises
    [Sys_error] if the file is unreadable; unparseable lines are
    skipped. *)

(** {1 Metric sets} *)

exception Parse_error of string
(** Raised by {!metrics_of_json} / {!load_metrics} on malformed JSON. *)

val metrics_of_json : string -> (string * float) list
(** Flatten a JSON document into [(path, value)] pairs: every numeric
    leaf becomes one metric, object keys joined with [.] and array
    elements indexed.  Paths carry no file-name prefix, so two
    snapshots compare independently of their file names.  Used to read
    the committed [BENCH_*.json] snapshots. *)

val load_metrics : string -> (string * float) list
(** Load a metric set from a file, auto-detecting the format: a JSONL
    history (versioned records, keyed ["experiment.metric"]; the latest
    record per key wins) or a single JSON document (flattened via
    {!metrics_of_json}). *)

(** {1 Comparison} *)

type direction = Lower_better | Higher_better | Informational

val direction_of_metric : string -> direction
(** From the metric name.  An explicit table on the name's last dotted
    segment wins: [efficiency] is higher-better (an efficiency drop
    fails the gate), while [bound_bytes] / [bound_time] /
    [achieved_bytes] are informational (tightening a lower bound
    raises it — that must never read as a regression).  Otherwise the
    heuristic applies: speedups/gains/throughputs are higher-better;
    times/cycles/drops are lower-better; anything unrecognized is
    informational (presence checked, value not gated). *)

type verdict =
  | Pass
  | Regression of { base : float; cur : float; limit : float }
  | Missing  (** in current but expected from baseline *)
  | Added  (** in current only — informational *)

type comparison = {
  comp_metric : string;
  comp_direction : direction;
  comp_verdict : verdict;
}

val compare_metrics :
  threshold:float ->
  baseline:(string * float) list ->
  current:(string * float) list ->
  comparison list
(** Compare two metric sets.  [threshold] is the tolerated relative
    change; the inequality is strict, so a change of
    exactly [threshold] passes.  A lower-better metric regresses when
    [cur > base *. (1 +. threshold)] (and when [base = 0] but
    [cur > 0]); a higher-better metric when
    [cur < base *. (1 -. threshold)].  Metrics present in the baseline
    but absent from current are {!Missing} (a failure); metrics only in
    current are {!Added} (not a failure). *)

val failures : comparison list -> comparison list
(** The comparisons that should fail a gate: regressions and missing
    metrics. *)

val render_report : threshold:float -> comparison list -> string
(** Human-readable comparison table plus a one-line verdict. *)
