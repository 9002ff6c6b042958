(** Deterministic, seeded fault injection for the machine layer.

    The simulators assume a perfect network; this module describes an
    imperfect one and lets every layer above ask the same questions:
    is this link up at this cycle, does this packet crossing drop, how
    much bandwidth is left?  A fault model is a list of {!spec} items
    plus a seed, under one fixed retransmission protocol; everything
    derived from it is {e deterministic} — the per-packet drop
    decision is a splitmix-style hash of (seed, packet, hop, attempt),
    not a draw from shared mutable state, so a given seed yields the
    same fault schedule whatever the evaluation order (including under
    {!Par} fan-out).

    Zero-cost when unused: every query short-circuits on {!is_none},
    and all simulator entry points default to {!none}, so fault-free
    runs are byte-identical to a build without this module. *)

(** {1 Seeded PRNG} *)

(** Splitmix64: the tiny, high-quality generator used to derive fault
    schedules.  Sequential drawing ({!Rng.float}) for schedule
    {e generation}; the counter-based {!drops} below for schedule
    {e evaluation}, which must not depend on call order. *)
module Rng : sig
  type t

  val make : int -> t
  (** Same seed, same sequence — always. *)

  val int : t -> int -> int
  (** [int t bound] draws uniformly in [\[0, bound)].
      @raise Invalid_argument when [bound <= 0]. *)

  val float : t -> float
  (** Uniform in [\[0, 1)]. *)
end

(** {1 Fault specifications} *)

type spec =
  | Link_down of { a : int; b : int; from_cycle : int; until_cycle : int }
      (** The (undirected) link between ranks [a] and [b] transmits
          nothing during cycles [\[from_cycle, until_cycle)].
          [from_cycle = 0, until_cycle = max_int] means the link is
          dead for the whole run: routing then detours around it
          ({!Topology.route_avoiding}) instead of stalling behind it. *)
  | Flaky of { link : (int * int) option; prob : float }
      (** Each packet crossing the link (or {e every} link when
          [None]) is dropped with probability [prob]. *)
  | Degraded of { link : (int * int) option; factor : float }
      (** Link bandwidth multiplied by [factor] in [(0, 1]]. *)
  | Dead_node of int
      (** The rank neither sends, receives nor forwards: all its links
          are severed and messages from/to it are unreachable. *)

type t

val none : t
(** The empty fault model: a perfect machine. *)

val is_none : t -> bool

val make : ?seed:int -> spec list -> t
(** [seed] defaults to [0].
    @raise Invalid_argument on a probability outside [\[0, 1]], a
    factor outside [(0, 1]], or a negative cycle interval. *)

val specs : t -> spec list
val seed : t -> int

val max_retries : int
(** The retransmission protocol every model shares: a dropped packet
    is retransmitted [128] cycles after the first attempt, the wait
    doubling per attempt up to [4096] cycles, and a packet is dropped
    permanently after [max_retries = 8] failed attempts. *)

(** {1 Spec grammar}

    [SPEC := item (';' item)*] with

    - [flaky:P] — every link drops each packet with probability [P]
    - [flaky:A-B:P] — only the link between ranks [A] and [B]
    - [down:A-B] — link permanently down (routing detours around it)
    - [down:A-B:F-T] — link down during cycles [\[F, T)] (packets wait)
    - [degrade:F] — every link at bandwidth fraction [F]
    - [degrade:A-B:F] — only that link
    - [dead:R] — rank [R] is dead

    e.g. ["flaky:0.05;down:3-4;dead:7"]. *)

val parse : string -> (spec list, string) result

val to_string : spec list -> string
(** Round-trips through {!parse}. *)

val label : t -> string
(** The model's spec grammar string, [""] for {!none} — the fault tag
    telemetry runs carry. *)

(** {1 Queries} *)

val has_severed : t -> bool
(** Whether any link is severed at all — lets callers keep the plain
    {!Topology.route} fast path when routing is unaffected. *)

val link_down : t -> cycle:int -> int * int -> bool
(** Is the link unable to transmit at this cycle (severed, or inside a
    down interval)? *)

val bandwidth_factor : t -> int * int -> float
(** Product of the degradation factors matching the link; [1.0] when
    none do. *)

val drops : t -> packet:int -> hop:int -> attempt:int -> link:(int * int) -> bool
(** Does this crossing attempt drop?  A pure hash of
    [(seed, packet, hop, attempt)] against the link's combined drop
    probability [1 - prod (1 - p_i)] over the flaky specs matching it
    — repeatable, order-independent, and distinct per retransmission
    attempt. *)

val backoff : attempt:int -> int
(** Cycles to wait before retransmission number [attempt] (1-based):
    [min (128 * 2^(attempt-1)) 4096], i.e. {!Backoff.exp_delay} over
    the protocol's knobs. *)

val expected_transmissions : t -> int * int -> float
(** [1 / (1 - p)] for the link's drop probability, capped at
    [max_retries + 1] attempts — the closed-form counterpart of the
    retransmission protocol. *)

val uniform_slowdown : t -> float
(** Machine-wide closed-form degradation: expected transmissions under
    the {e global} flaky spec divided by the global bandwidth factor.
    Link-specific specs do not contribute (a whole-machine cost model
    has no single link to ask about); [1.0] for {!none}. *)

val route : t -> Topology.t -> src:int -> dst:int -> (int * int) list option
(** The route a message would take under this fault model: [None] when
    an endpoint is dead or every path crosses a severed link,
    [Some hops] (the plain dimension-order path, or a deterministic
    detour) otherwise. *)

val random_specs : Rng.t -> Topology.t -> spec list
(** A random fault schedule for chaos testing: possibly a dead node,
    up to two down links (permanent or interval), a global flaky
    probability and a global degradation — all drawn from the given
    generator, so a chaos seed reproduces its schedule exactly.  May
    be empty (a fault-free trial). *)

val pp : Format.formatter -> t -> unit
