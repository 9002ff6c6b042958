(** Capped exponential backoff with optional deterministic jitter.

    One home for the retry-delay arithmetic that used to live inside
    {!Fault}: the event simulator's retransmission protocol and the
    [resopt serve] client retry loop both wait
    [min (base * 2^(attempt-1)) cap] units before attempt number
    [attempt], and the client additionally spreads its waits with a
    seeded jitter so a thundering herd of retries de-synchronizes —
    deterministically, because the jitter is a pure hash of
    [(seed, attempt)], never a draw from shared mutable state.

    {!exp_delay} is the exact function {!Fault.backoff} has always
    computed, so extracting it here changes no Eventsim output. *)

val exp_delay : base:int -> cap:int -> attempt:int -> int
(** [exp_delay ~base ~cap ~attempt] — wait before (1-based) attempt
    number [attempt]: [base] doubled [attempt - 1] times, capped at
    [cap].  Attempts [< 1] are treated as 1.  The unit is the
    caller's (cycles for the simulator, milliseconds for the serve
    client). *)

(** {1 Jittered policies} *)

type t

val make : jitter:float -> seed:int -> base:int -> cap:int -> t
(** [jitter] is the fraction of each delay that the
    hash may remove: attempt [a] waits
    [exp_delay * (1 - jitter * u)] with [u] uniform in [\[0, 1)]
    derived from [(seed, a)].  [jitter = 0.] reproduces {!exp_delay}
    exactly.  @raise Invalid_argument on [base <= 0], [cap < base] or
    [jitter] outside [\[0, 1]]. *)

val delay : t -> attempt:int -> int
(** Wait (>= 1 whenever [base >= 1]) before attempt [attempt]; same
    arguments, same answer, on any domain or thread. *)

(** {1 Hashing primitives}

    The splitmix64 finalizer, shared with {!Fault.Rng} so both derive
    their deterministic streams from the same arithmetic. *)

val mix64 : int64 -> int64
val to_unit_float : int64 -> float
(** Top 53 bits of a hash as a uniform float in [\[0, 1)]. *)

val hash_unit : seed:int -> int list -> float
(** [hash_unit ~seed ks] — fold [ks] into a unit float, the
    counter-based drawing {!Fault.drops} and the jitter share. *)
