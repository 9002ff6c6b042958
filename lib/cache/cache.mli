(** Dependency-free memoization of repeated solves.

    A content-addressed memo table — canonical string keys,
    size-bounded with LRU eviction — in the same spirit as {!Obs} and
    {!Par}: standard library only, and zero cost when unused.  Two
    tables exist, each kept because a workload hits it:

    - [validate.check] ({!Resopt.Validate}): the brute-force
      enumeration that checks a plan is quadratic in the iteration
      domain and is nearly all of a curated sweep's time, so a
      repeated [sweep], [profile] or [fuzz] run skips it.
    - [serve.responses] ({!Serve.Server}): the daemon's seed-free
      solves, keyed by request; a repeated request is answered from
      it, and it is what the server's crash-safe snapshots persist.

    The integer linear algebra below them (Hermite, Smith, unimodular
    inverses, decompositions) and per-plan pricing take microseconds
    per call and are not memoized: a key costs about as much as the
    solve.  For the same reason a caller must not build a key while
    the cache is off: test {!enabled} first, so that cache-off work
    pays one boolean test and nothing else.

    {e Caching never changes results.}  Until {!enable} is called,
    {!Memo.find_or_compute} calls its thunk directly — one boolean
    test, no table, no allocation — so cache-off output is
    byte-identical to a build without this library.  With the cache
    on, only pure functions are memoized, so every output is
    byte-identical to cache-off; the CI gate diffs the two.

    [validate.check] is {e per-domain}: each domain reads and writes
    its own shard (held in [Domain.DLS]), so workers spawned by {!Par}
    never contend and never need a lock.  {!capture} is the one
    capture/merge pair left in the code base: a parallel runner gives
    every worker slot fresh per-domain shards for its whole drain loop
    and folds what the slot cached back into the caller's shards at
    join, in slot order.

    [serve.responses] is {e shared} ([~shared:true]): one table that
    every thread and domain of the server sees.  The server's
    connection threads look requests up and refresh recency in it
    while its solver thread solves, possibly under {!Par}; one lock
    guards every lookup, insert, dump and stats read, {!capture}
    leaves the table alone, and {!save} lists its entries under that
    lock and writes the file outside it.  The [shared] flag exists for
    that one table and goes away with the per-domain shards.

    An optional on-disk format ({!save} / {!load}) persists the tables
    across CLI invocations.  The format is versioned and checksummed;
    a corrupted, truncated or stale file is {e ignored}, never
    trusted and never fatal. *)

(** {1 Enabling} *)

val enable : unit -> unit
(** Start serving lookups from (and inserting into) the memo tables.
    Idempotent. *)

val disable : unit -> unit
(** Stop.  Table contents are kept (use {!clear} to drop them). *)

val enabled : unit -> bool

val scoped : ?enable:bool -> (unit -> 'a) -> 'a
(** [scoped ~enable:true f] runs [f] with the cache on, restoring the
    previous state afterwards (also on exceptions); [~enable:false]
    forces it off for the scope; omitting [enable] leaves the ambient
    state alone — this is what the [?cache] optional argument of
    {!Resopt.Sweep.run} passes through. *)

val clear : unit -> unit
(** Drop every entry of every table in the current domain's shards
    (and a shared table's one shard) and reset their
    hit/miss/eviction tallies.  Does not change the enabled flag. *)

(** {1 Statistics} *)

type stats = { hits : int; misses : int; evictions : int; entries : int }
(** Tallies for the current domain's shard(s), or a shared table's
    one shard.  [entries] is the current size; the counters are cumulative since the last {!clear}.
    When recording is on ({!Obs.enabled}), every lookup also feeds the
    [cache.lookups] / [cache.hits] / [cache.misses] /
    [cache.evictions] counters, which {!Par} merges across workers
    like any other metric — after a parallel run,
    [hits + misses = lookups] still holds. *)

val stats : unit -> stats
(** Aggregate over every table, current domain. *)

(** {1 Memo tables} *)

module Memo : sig
  type 'a t
  (** A typed memo table: canonical string keys to values of one type.
      Each memoized function owns one table, created once at module
      initialization. *)

  val create :
    ?capacity:int -> ?shared:bool -> name:string -> schema:string -> unit -> 'a t
  (** [capacity] (default 1024, clamped to >= 1) bounds every
      per-domain shard; the least-recently-used entry is evicted when
      a fresh key would overflow it.  [shared] (default [false])
      replaces the per-domain shards with one lock-guarded shard that
      every domain and thread reads and writes, and that {!capture}
      does not swap; every operation below then takes that lock.  Every table takes part in
      {!save} / {!load}, so its values must be marshallable (no
      closures).  [name] must be unique —
      it keys the on-disk sections — and [schema] is a free-form
      version tag: bump it whenever the value type or the meaning of
      the keys changes, and stale persisted sections are skipped on
      load. *)

  val find_or_compute : 'a t -> key:string -> (unit -> 'a) -> 'a
  (** The memoizing lookup.  With the cache disabled this is just the
      thunk.  Enabled: return the cached value for [key] (refreshing
      its recency) or run the thunk, store the result and return it —
      evicting the least-recently-used entry if the shard is full.  If
      the thunk raises, nothing is stored. *)

  val find_opt : 'a t -> string -> 'a option
  (** The lookup half of {!find_or_compute}, for callers that compute
      misses elsewhere (a batch fanned out over workers): [Some] the
      cached value, refreshing its recency and counting a hit, or
      [None] counting a miss — exactly the tallies {!find_or_compute}
      would move.  [None] without counting when the cache is
      disabled. *)

  val add : 'a t -> key:string -> 'a -> unit
  (** The insertion half: store [key] (or refresh its recency, keeping
      the stored value), evicting like {!find_or_compute}.  Counts
      nothing — the {!find_opt} that missed already did.  A no-op when
      the cache is disabled. *)

  val mem : 'a t -> string -> bool
  (** Current domain's shard (or the shared one), no recency update,
      no counters. *)

  val length : 'a t -> int

  val capacity : 'a t -> int

  val keys : 'a t -> string list
  (** Most-recently-used first — the reverse of eviction order. *)

  val stats : 'a t -> stats
end

(** {1 Parallel workers} *)

val capture : (unit -> 'a) -> 'a * (unit -> unit)
(** [capture f] runs [f ()] (a worker slot) with a fresh, empty shard
    per per-domain table for the current domain (a shared table is
    left alone) and restores the previous shards afterwards; if [f]
    raises, its insertions are dropped.  The
    returned merge folds the slot's shards into the shards of the
    domain that calls it: entries are replayed oldest-first through
    the normal insertion path (capacity and eviction included) and the
    hit/miss/eviction tallies are summed.  While the cache is disabled
    [capture f] is just [f ()] and the merge does nothing.

    Because the shards start empty, a worker never reads what the
    caller had cached before the parallel run. *)

(** {1 Persistence}

    One file holds every table.  Layout: a magic line with
    the format version, a hex FNV-1a checksum line, then the marshalled
    sections.  {!load} verifies magic and checksum before unmarshalling
    anything, and skips sections whose (name, schema) no longer match a
    registered table, so an old or foreign file degrades to a cold
    cache, never to a crash. *)

val save : string -> unit
(** Write the current domain's shards of every table (and the one
    shard of a shared table) — crash-safely: the bytes go to [file ^ ".tmp"] first and are moved
    into place with an atomic [Sys.rename], so a crash (or [kill -9],
    as the serve snapshot loop invites) mid-save leaves the previous
    complete file intact rather than a truncated one.  Raises
    [Sys_error] if the file cannot be written. *)

val load : string -> bool
(** [load file] merges the file's entries into the current domain's
    shards, or a shared table's one shard (through the normal insertion path, so capacities hold) and
    returns [true]; returns [false] — caching simply starts cold — if
    the file is missing, truncated, corrupted, from another format
    version, or fails to unmarshal.  A file that {e exists} but fails
    validation additionally bumps the [cache.load_corrupt] Obs
    counter, so silent warm-cache loss is visible in [--stats]. *)
