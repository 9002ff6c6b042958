(** Parameter sweeps over the whole pipeline.

    Runs every workload against every machine model (and optionally
    several grid dimensions), pricing the optimized plan against the
    step-1-only baseline: the summary table a user would consult to
    decide whether the residual optimization is worth enabling on
    their machine. *)

type row = {
  workload : string;
  m : int;
  model : string;
  optimized : float;
  baseline : float;
  non_local : int;
  validated : bool;
  time_ms : float;
      (** wall time of the optimizer run for this (workload, m) cell,
          via {!Obs.time_ms}.  The baseline is not timed on its own:
          it is derived from the run's step 1
          ({!Feautrier.of_pipeline}).  The same value is stamped into
          every model row of the cell (the optimizer runs once), but
          the [sweep.time_ms] histogram observes it only once per
          cell. *)
  cost_ms : float;
      (** wall time of pricing the two plans on this row's machine
          model — the only per-model work — observed per row in the
          [sweep.cost_ms] histogram. *)
  resilience : (float * float) list;
      (** [(rate, gain)] pairs: the optimized-vs-baseline gain
          ([baseline / optimized]) re-priced under the sweep's fault
          model with a machine-wide flaky probability of [rate] added
          on top.  Empty unless the sweep was given [faults] or
          [fault_rates] — rows without resilience render and CSV
          exactly as before. *)
  map_gain : float option;
      (** the optimized plan's price under the paper's fixed embedding
          over its price under the searched process placement
          ({!Cost.of_plan} [?mapping]) — how much the mapping layer
          recovers on top of the two-step heuristic.  [1.0] when the
          placement cannot help (no 2-D simulation grid, no 2x2
          residual flows, or a local optimum at identity); [None]
          unless the sweep was given [mapping], in which case rows
          render and CSV exactly as before. *)
  eff : float option;
      (** achieved-vs-bound transfer-time efficiency of the optimized
          plan's residual traffic on this row's machine model
          ({!Efficiency.of_plan}), in [(0, 1]].  [None] unless the
          sweep was run with [bounds], or when the model has no 2-D
          simulation grid (t3d) — rows without it render and CSV
          exactly as before. *)
}

val run :
  ?jobs:int ->
  ?ms:int list ->
  ?models:Machine.Models.t list ->
  ?workloads:Workloads.t list ->
  ?faults:Machine.Fault.t ->
  ?fault_rates:float list ->
  ?cache:bool ->
  ?mapping:Mapping.spec ->
  ?bounds:bool ->
  unit ->
  row list
(** Defaults: [ms = [2]], all three machine models, all workloads.
    Workload/dimension combinations the alignment cannot materialize
    are skipped.

    [faults] / [fault_rates] turn on the resilience columns: each row
    is additionally priced under [faults] plus a machine-wide
    [Flaky] probability for every rate in [fault_rates]
    (default [[0.0; 0.01; 0.05]] when only [faults] is given;
    [faults] defaults to {!Machine.Fault.none} when only
    [fault_rates] is given).  Omitting both keeps the rows — and the
    rendered table and CSV — byte-identical to a fault-free sweep.

    [mapping] additionally prices every optimized plan under the
    searched process placement ({!Cost.of_plan} [?mapping]) and fills
    the rows' [map_gain] — the new [gain_map] table / CSV column.
    The mapping search is deterministic for a given spec, so the CSV
    still diffs clean across runs and job counts; omitting [mapping]
    keeps the rows, the table and the CSV byte-identical to a
    mapping-free sweep.

    [bounds] additionally computes the communication lower bound of
    every optimized plan's residual traffic and fills the rows' [eff]
    — the new [eff] table / CSV column (achieved-vs-bound transfer
    time, {!Efficiency}).  Bounds are deterministic, so the CSV still
    diffs clean across runs and job counts; omitting [bounds] (or
    passing [false]) keeps the rows, the table and the CSV
    byte-identical to a bounds-free sweep.

    [cache] only scopes {!Cache}'s enabled flag around the sweep
    ({!Cache.scoped}); no sweep path reads that flag or reaches a memo
    table, so it changes nothing.  It stays only so that the benchmark
    harness, which passes it by label, still builds; it goes when the
    harness stops passing it.

    [jobs] fans the (workload, m) cells over a {!Par.Pool} of that
    size.  Parallelism never changes the rows: results are assembled
    in input order and [~jobs:n] output is identical to [~jobs:1]
    (timing fields excepted, as between any two runs); omitting [jobs]
    keeps today's sequential path, never touching [Par].

    When {!Obs.enabled}, every model row is priced inside a
    [sweep.cell] span tagged with (workload, m, model) and feeds the
    [sweep.cells] / [sweep.non_local] counters and the [sweep.gain] /
    [sweep.time_ms] / [sweep.cost_ms] histograms — under [jobs] the
    workers record into the same shared store, so the totals match a
    sequential sweep. *)

val pp_table : Format.formatter -> row list -> unit

val to_csv : row list -> string
(** The rows as CSV, header line included — only the deterministic
    columns (workload, m, model, optimized, baseline, gain, non_local,
    validated), no timings, so two sweeps of the same build diff clean
    whatever [jobs] was.  This is the artifact the CI determinism gate
    compares across [--jobs 1] / [--jobs 4].

    When the rows carry resilience data, one [gain_fault_R] column per
    rate is appended after [validated]; fault pricing is deterministic
    for a given seed + spec, so the CSV still diffs clean across
    repeated runs and job counts.  When the rows carry mapping data, a
    [gain_map] column is appended last, same determinism contract.
    When any row carries an efficiency, an [efficiency] column is
    appended after that (empty cells for grid-less models). *)

val metrics : row list -> (string * float) list
(** Deterministic aggregates of a sweep for benchmark recording
    ({!Obs.Benchstore}): row / validated / non-local totals plus, per
    machine model, the aggregate gain (summed baseline over summed
    optimized cost) and the summed optimized cost — plus, when the
    sweep ran with [mapping], the aggregate [map_gain] (summed
    unmapped over summed mapped optimized cost) and, when it ran with
    [bounds], the mean achieved-vs-bound [efficiency].  No timing
    fields, so the values are stable across runs and [jobs] levels. *)
