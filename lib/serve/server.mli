(** The [resopt serve] daemon: the optimizer behind a socket.

    One process, three kinds of threads.  An {e accept} thread takes
    connections; a {e connection} thread per client reads framed
    {!Wire} requests and writes framed responses; a single {e solver}
    thread solves.  Connection threads read and refresh the response
    memo under its lock, and answer a hit themselves at admission;
    only a miss is queued for the solver, which alone solves and alone
    touches {!Par}.  The memo is one {!Cache} table under its own
    lock, which every thread and domain sees, so a {!Par} fan-out on
    the solver's domain cannot hide it from the connection threads.
    A miss waits on one wakeup pipe per connection.  No wakeup byte
    outlives its request: a waiter that finds its solve finished reads
    back the one byte the solver wrote for it, and a waiter that times
    out unregisters before the solver can write.  {!Obs} records into
    one mutex-guarded store from any thread; the solver drops the
    spans and histogram samples each batch leaves there, so a server
    keeps counters and summaries, not a log that grows per request.

    Robustness contract, each piece visible to clients as a structured
    response rather than a hung or dropped connection:

    - {e Admission control}: at most [max_queue] solves wait at once;
      beyond that, run requests get an immediate [shed] response,
      memo hits included.
    - {e Deadlines}: a request carrying [deadline_ms] (or the server
      default) gets a [timeout] response when it expires — the solve
      itself continues and warms the cache for the retry.  A deadline
      bounds only the wait for a solve: a memo hit never waits, so it
      never times out.  A signal landing on a waiting thread never
      ends the wait early.
    - {e Coalescing}: concurrent requests with the same
      {!Wire.work_key} share one computation, and the response memo
      keeps one entry per work key.  The key holds only what the
      computation reads, so requests differing in an unread field (a
      greedy [mseed]) share it, and so do requests differing only in
      their fault seed: each waiter stamps its own [fseed] into the
      shared solve ({!Answer.stamp}) on its connection thread, so
      every client still gets its own answer's bytes.
    - {e Graceful drain}: {!stop} (or SIGTERM via
      {!install_signal_handlers}) stops accepting, sheds new work,
      finishes the queue, snapshots the cache and exits.
    - {e Crash-safe warmth}: with [cache_file] set, the solver
      snapshots the memo tables every [snapshot_every] batches through
      {!Cache.save}'s atomic rename, so even [kill -9] loses at most
      the last interval and a restart answers warm.

    Stats: a [stats] request is answered at once on its connection
    thread, never queued, coalesced or shed for a full queue.
    [latency_ms_p50/p95/p99] cover the 4096 most recent answered runs
    (every run, until that many were answered): a hit timed from its
    admission to its memo lookup, a miss from its admission to its
    solve's completion.  [bounds_computed] and [bounds_eff_*]
    cover only the (workload, m) pairs this process has solved: a pair
    answered only from a memo loaded from [cache_file] is not bounded
    after a restart.

    Answers are {!Answer.render} bytes — byte-identical to the offline
    CLI, which is how the CI soak gate checks the whole tower.  The
    memo persists under schema [resopt-serve/2] (seed-free solves); a
    cache file written under [resopt-serve/1] loads cold. *)

type config = {
  addr : Wire.addr;
  jobs : int;  (** solve-pool width; > 1 fans batches over {!Par} *)
  max_queue : int;  (** admission bound on waiting solves *)
  deadline_ms : int;  (** default deadline, [0] = none *)
  snapshot_every : int;
      (** snapshot the cache every N solved batches; [0] = only at
          shutdown *)
  cache_file : string option;
}

val default_config : Wire.addr -> config
(** [jobs = 1], [max_queue = 64], [deadline_ms = 0] (no deadline),
    [snapshot_every = 8], [cache_file = None]. *)

type t

val start : config -> t
(** Bind, load the cache file if any (a missing or corrupt one starts
    cold, counted in [cache.load_corrupt]), spawn the threads.  Raises
    [Unix.Unix_error] when the address cannot be bound. *)

val address : t -> Wire.addr
(** The bound address — with [Tcp (_, 0)] this has the real port. *)

val stop : t -> unit
(** Begin graceful drain.  Idempotent, non-blocking; {!wait} for
    completion. *)

val install_signal_handlers : t -> unit
(** SIGTERM and SIGINT trigger {!stop} (the handler only flips an
    atomic flag; the polling loops notice).  SIGPIPE is already
    ignored by {!start}. *)

val wait : t -> unit
(** Block until the server has fully drained and every thread has
    exited. *)
