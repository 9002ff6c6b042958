(** Dependency-free memoization of repeated solves.

    A content-addressed memo table — canonical string keys,
    size-bounded with LRU eviction — in the same spirit as {!Obs}:
    standard library only, and zero cost when unused.  There is one
    kind of table: one LRU shard behind its own lock, which every
    thread and domain reads and writes.  Its users are the server's
    [serve.responses] table ({!Serve.Server}: the daemon's seed-free
    solves, keyed by request, which its crash-safe snapshots persist)
    and the tests.  Everything else, Validate's brute-force
    enumeration included, is recomputed: a repeated [sweep] gains
    nothing a key does not cost.

    {e Caching never changes results.}  Until {!enable} is called,
    {!Memo.find_opt} finds nothing and {!Memo.add} stores nothing —
    one boolean test, no lock, no allocation — so a caller computes
    every value itself.  With the cache on, only pure results may be
    stored, so every output is byte-identical to cache-off.

    The lock guards every lookup, insert, dump and stats read; {!save}
    lists a table's entries under it and marshals and writes the file
    outside it.

    An optional on-disk format ({!save} / {!load}) persists the tables
    across runs.  The format is versioned and checksummed; a
    corrupted, truncated or stale file is {e ignored}, never trusted
    and never fatal. *)

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
(** Drop every entry of every table and reset their
    hit/miss/eviction tallies.  Does not change the enabled flag. *)

(** {1 Statistics} *)

type stats = { hits : int; misses : int; evictions : int; entries : int }
(** A table's tallies.  [entries] is the current size; the counters
    are cumulative since the last {!clear}.  When recording is on
    ({!Obs.enabled}), every lookup also feeds the [cache.lookups] /
    [cache.hits] / [cache.misses] / [cache.evictions] counters, so
    [hits + misses = lookups] holds whichever threads and domains
    looked up. *)

val stats : unit -> stats
(** Aggregate over every table. *)

(** {1 Memo tables} *)

module Memo : sig
  type 'a t
  (** A typed memo table: canonical string keys to values of one type.
      Each memoized function owns one table, created once at module
      initialization. *)

  val create : ?capacity:int -> name:string -> schema:string -> unit -> 'a t
  (** [capacity] (default 1024, clamped to >= 1) bounds the table;
      the least-recently-used entry is evicted when a fresh key would
      overflow it.  Every table takes part in {!save} / {!load}, so its
      values must be marshallable (no closures).  [name] must be
      unique — it keys the on-disk sections — and [schema] is a
      free-form version tag: bump it whenever the value type or the
      meaning of the keys changes, and stale persisted sections are
      skipped on load. *)

  val find_opt : 'a t -> string -> 'a option
  (** The lookup: [Some] the cached value, refreshing its recency and
      counting a hit, or [None] counting a miss; the caller computes a
      miss and {!add}s it.  [None] without counting when the cache is
      disabled. *)

  val add : 'a t -> key:string -> 'a -> unit
  (** The insertion: store [key] (or refresh its recency, keeping the
      stored value), evicting the least-recently-used entry if the
      table is full.  Counts nothing — the {!find_opt} that missed
      already did.  A no-op when the cache is disabled. *)

  val mem : 'a t -> string -> bool
  (** No recency update, no counters. *)

  val length : 'a t -> int

  val keys : 'a t -> string list
  (** Most-recently-used first — the reverse of eviction order. *)

  val stats : 'a t -> stats
end

(** {1 Persistence}

    One file holds every table.  Layout: a magic line with
    the format version, a hex FNV-1a checksum line, then the marshalled
    sections.  {!load} verifies magic and checksum before unmarshalling
    anything, and skips sections whose (name, schema) no longer match a
    registered table, so an old or foreign file degrades to a cold
    cache, never to a crash. *)

val save : string -> unit
(** Write every table, crash-safely: the bytes go to [file ^ ".tmp"]
    first and are moved into place with an atomic [Sys.rename], so a
    crash (or [kill -9], as the serve snapshot loop invites) mid-save
    leaves the previous complete file intact rather than a truncated
    one.  Raises
    [Sys_error] if the file cannot be written. *)

val load : string -> bool
(** [load file] merges the file's entries into the tables (through
    the normal insertion path, so capacities hold) and returns
    [true]; returns [false] — caching simply starts cold — if
    the file is missing, truncated, corrupted, from another format
    version, or fails to unmarshal.  A file that {e exists} but fails
    validation additionally bumps the [cache.load_corrupt] Obs
    counter, so silent warm-cache loss is visible in [--stats]. *)
