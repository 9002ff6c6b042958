(** Store-and-forward discrete-event simulation.

    {!Netsim} prices a communication with a closed-form model (start-up
    serialization + hottest link + distance).  This module actually
    {e runs} the traffic, cycle by cycle: every message is a packet
    following its dimension-order route; a directed link transmits the
    bytes of one packet at a time at a fixed rate and packets queue
    FIFO behind each other — the "serial messages on a single link"
    conflicts the paper observed on the Paragon, made concrete.

    Used to cross-validate the closed-form model: rankings (which of
    two communication patterns is faster) agree between the two
    simulators on the paper's experiments.

    Under a {!Fault} model the simulation degrades instead of lying:
    packets crossing flaky links drop and are retransmitted with ACK
    timeout and capped exponential backoff; links inside a down
    interval stall their queue; permanently severed links are detoured
    around at injection time ({!Topology.route_avoiding}); messages with
    no surviving route (or a dead endpoint) are counted [unreachable]
    up front.  Partial delivery is always reported, never silently
    lost: {b [delivered + dropped + unreachable = total messages]} in
    every run (local messages count as delivered at time 0). *)

type mode =
  | Store_forward  (** a packet fully crosses one link at a time *)
  | Wormhole
      (** circuit-like: a message holds its whole path while its bytes
          stream through — shorter when free, blocking when contended *)

type params = {
  bytes_per_cycle : int;  (** link bandwidth *)
  startup_cycles : int;  (** injection cost per message at the sender *)
  mode : mode;
}

val default_params : params
(** [bytes_per_cycle = 16], [startup_cycles = 64]: per-message software
    overhead dominates per-byte cost by two orders of magnitude, as on
    the real machines of the era. *)

type result = {
  cycles : int;  (** makespan *)
  delivered : int;
  dropped : int;
      (** packets dropped {e permanently}: every retransmission
          attempt up to [Fault.max_retries] also dropped.  0 without
          faults. *)
  retransmits : int;  (** total retransmission attempts *)
  unreachable : int;
      (** messages never injected: an endpoint is dead, or every route
          crosses a severed link *)
  max_link_queue : int;
      (** worst {e queue depth} observed on one link, in both modes:
          packets queued behind a store-and-forward link, or circuits
          still pending on a wormhole link when a new message asks for
          it.  (Before the split this field recorded waiting {e
          cycles} in wormhole mode; that measure is now
          [max_inject_wait].) *)
  max_inject_wait : int;
      (** wormhole only: the longest time (cycles) a message waited
          between being injection-ready and acquiring its whole path.
          0 in store-and-forward mode, where waiting shows up as queue
          depth instead. *)
  total_link_busy : int;  (** sum over links of busy cycles *)
  telemetry : Obs.Telemetry.run;
      (** the run's full record: sim ["eventsim"] or
          ["eventsim-wormhole"], label [""] for the caller to set.
          Every other field is a summary of it, except
          [max_inject_wait]. *)
}

exception Deadlock of { cycles : int; in_flight : int }
(** Raised (instead of a bare [Failure]) when the simulation exceeds
    its cycle cap with [in_flight] packets still undelivered — a
    structured verdict the CLI can render as a clean error. *)

val run :
  ?faults:Fault.t ->
  Topology.t ->
  params ->
  Netsim.volume ->
  result
(** Runs the volume's {!Netsim.replay}: the uncoalesced traffic, or
    one message per ordered pair when the volume was built with
    [~coalesce:true].  Local messages are delivered at time 0.
    Deterministic: messages are injected in replay order, one per
    sender per [startup_cycles], and fault decisions are pure hashes
    of (seed, packet, hop, attempt) — the same [faults] value always
    reproduces the same result, at any {!Par} jobs level.

    [faults] (default {!Fault.none}, which costs nothing) injects the
    fault model described in the module header.  In [Wormhole] mode
    dead nodes, severed links and degraded bandwidth apply, but
    per-packet drops do not (a circuit either holds or is never
    built), so [dropped = retransmits = 0] there.

    Both modes return one {!Obs.Telemetry.run} in [telemetry]:
    per-message lifecycles (inject cycle, queue-wait, hops,
    retransmits, outcome), per-link busy/carried/peak-queue/stall
    series, and a bounded event log.  Telemetry is a return value, not
    a recorder: {!Obs} and {!Obs.Profile} are the two recorders, and
    the run reaches a report only through the caller.

    Every 64 cycles store-and-forward mode (wormhole is not
    cycle-stepped) samples each link's queue depth into its
    [queue_area].  When {!Obs.enabled}, the same sample feeds the
    {!Obs.point} time series [eventsim.in_flight],
    [eventsim.busy_links], [eventsim.max_queue_now] and
    [eventsim.delivered_fraction] (timestamped in cycles), and the
    final result feeds the [eventsim.*] histograms plus the
    [fault.injected] / [eventsim.retransmits] counters and the
    [eventsim.backoff_ms] histogram.  Obs recording changes no field
    of the result.

    @raise Deadlock when the cycle cap is exceeded. *)
