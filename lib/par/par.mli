(** Dependency-free parallel runtime on OCaml 5 domains.

    In the same spirit as {!Obs}: standard library only, and zero cost
    when unused — code that never asks for parallelism never spawns a
    domain, and a pool of size 1 runs everything sequentially on the
    calling domain, so [jobs:1] is indistinguishable from not using
    this module at all.

    The combinators make one promise that matters more than speed:
    {e parallelism never changes results}.  Work is handed to domains
    in chunks through an atomic index, but every result lands in the
    slot of its input, so [map pool f l] equals [List.map f l]
    whatever the interleaving, and [concat_map] flattens in input
    order.  If tasks raise, the exception of the {e lowest-indexed} failing
    input is re-raised (with its backtrace) after all workers drain —
    again independent of scheduling.

    Observability needs nothing from this module beyond the worker
    id: {!Obs}, {!Obs.Telemetry} and {!Obs.Profile} record into
    process-wide stores that every domain shares, so each worker slot
    only runs inside {!Obs.Profile.with_worker}.  Counter and
    histogram totals therefore match a sequential run, every span
    recorded inside a task carries a [("worker", <slot>)] arg, and
    simulation runs recorded on workers land in
    {!Obs.Telemetry.runs}.  A slot keeps no state of its own, so
    nothing is folded back at join.

    Pools are coordinated from one domain at a time: do not share a
    pool between concurrent orchestrators, and do not call a
    combinator from inside a task running on the same pool. *)

module Pool : sig
  type t
  (** A fixed-size set of worker domains plus the calling domain.
      Workers are spawned lazily on the first parallel operation and
      block on a condition variable between operations, so an idle
      pool costs nothing but memory. *)

  val create : ?jobs:int -> ?oversubscribe:bool -> unit -> t
  (** [create ~jobs ()] — a pool accepting work for [jobs] domains.
      Defaults to [Domain.recommended_domain_count ()]; values [< 1]
      are clamped to 1, and a pool of execution width 1 never spawns
      anything.

      The pool {e executes} on [width = min jobs cores] domains: the
      chunks are CPU-bound and OCaml 5 minor collections stop every
      domain, so running more domains than cores multiplies GC pauses
      instead of adding throughput (the profiled cause of the 0.355x
      jobs-4 sweep in [BENCH_par.json] on a 1-core machine).  Results
      never depend on the width — only wall time does.
      [~oversubscribe:true] lifts the cap and executes on [jobs]
      domains regardless of the core count, which tests use to get
      genuinely scrambled multi-domain scheduling everywhere. *)

  val jobs : t -> int
  (** The requested parallelism, as passed to [create]. *)

  val width : t -> int
  (** The number of domains operations actually execute on. *)

  val shutdown : t -> unit
  (** Stop and join the worker domains.  Idempotent.  Using the pool
      afterwards raises [Invalid_argument]. *)

  val with_pool : ?jobs:int -> ?oversubscribe:bool -> (t -> 'a) -> 'a
  (** [with_pool ~jobs f] — [create], run [f], always [shutdown]. *)
end

(** {1 Shared pools}

    Domain spawns cost real time relative to a sweep row, and pools
    used to be created and torn down once per call.  [Shared] keeps
    one pool per jobs count alive for the whole process; long-running
    call sites (CLI subcommands, {!Resopt.Sweep} rows, benches) should
    prefer it over {!Pool.with_pool}. *)

module Shared : sig
  val get : jobs:int -> Pool.t
  (** The process-wide pool for [jobs] (clamped to [>= 1]), created on
      first use with the default width cap.  Do not [shutdown] it;
      pools are shut down automatically at exit. *)

  val shutdown_all : unit -> unit
  (** Shut down and forget every shared pool (subsequent [get]s create
      fresh ones).  Runs automatically via [at_exit]; callable earlier
      by tests. *)
end

(** {1 List combinators} *)

val map : Pool.t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f l = List.map f l], with the applications of [f]
    distributed over the pool's domains. *)

val concat_map : Pool.t -> ('a -> 'b list) -> 'a list -> 'b list
