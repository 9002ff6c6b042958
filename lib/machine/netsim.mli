(** Contention-aware communication cost model.

    The completion time of a set of simultaneous messages combines:
    - sender/receiver serialization: a node injects (drains) one
      message at a time, each paying the start-up [alpha];
    - bandwidth: the most loaded directed link transfers its bytes
      serially at [beta] per byte — this is where general affine
      communications lose: dimension-order routes pile onto shared
      links, while axis-parallel elementary communications spread
      evenly (paper §4, Table 2);
    - distance: the longest route pays [hop] per link.

    Messages between the same (src, dst) pair of physical processors
    are coalesced into one message whose size is the sum — the
    compiled code would vectorize them (paper §3.5), and the physical
    channel carries them as one transfer anyway.

    [time = alpha * max(sender, receiver serialization)
          + beta * max link load (bytes)
          + hop * longest path].  Local messages ([src = dst]) are
    free.

    Under a {!Fault} model the formula keeps its shape but the inputs
    degrade — the {e degraded-capacity} variant: routes detour around
    severed links (so hops may grow), each link's load is inflated by
    the expected retransmissions over its flaky probability divided by
    its remaining bandwidth fraction, and messages with no surviving
    route (or a dead endpoint) are counted [unreachable] and excluded
    from the price instead of silently vanishing.

    {2 One pricing core}

    Every price goes through {!price}, over a {!volume}: a
    {!Message.traffic} stream whose local messages cost nothing,
    counted once in a dense [n x n] table borrowed per domain.  A
    coalesced volume sums each host pair's bytes ({!Volgraph.tally});
    an uncoalesced one counts the messages of each (pair, size) group
    ({!Volgraph.groups}).  Groups keep the order of their first
    message.  {!price} routes each group once and adds [count] times
    its per-message load, sends, bytes and hops: integer sums, exact
    under faults and fat-tree capacities, because a link's effective
    load is rounded per message.  The residual-traffic producers
    ([Foldsim], [Residual]), the lower bounds ([Bounds.transfer_time],
    which reads its bounds off the same coalesced volume) and
    {!Models} all price through it, and {!Eventsim} replays the same
    {!volume}: a stream is the one form traffic takes.  The model is
    closed form, so a price records no telemetry; {!Eventsim}, which
    simulates each message's lifecycle, is what telemetry records.

    Pricing runs on the topology's {!Compiled} form, built once per
    process and shared across domains: each route is an [int array]
    of dense directed-link ids, read from a dense host-pair table,
    and a run accumulates effective bytes into an [int array]
    indexed by link id, so [max_link_load] is an array maximum and
    the per-link list is read back in link order.  A faulty run
    follows the same path: it computes each link's fault weight
    once, and maps a {!Fault.route} detour to ids only when some link
    is severed or some node dead. *)

type params = { alpha : float; beta : float; hop : float }

type stats = {
  time : float;
  messages : int;  (** non-local messages actually priced *)
  total_bytes : int;
  total_hops : int;
  max_link_load : int;  (** bytes through the most loaded link *)
  max_sender : int;  (** messages injected by the busiest node *)
  max_receiver : int;
  max_hops : int;
  unreachable : int;
      (** messages excluded from the price: dead endpoint or no
          surviving route.  0 without faults. *)
}

type volume
(** Traffic made ready to price: when coalesced, one message per
    ordered host pair with bytes summed, tallied when made; otherwise
    the traffic itself, counted by (pair, size) on its first price
    and priced from that count from then on.  The price skips local
    messages.

    A coalesced volume keeps its count alone, not the traffic it was
    tallied from, and is immutable, relabelled or not.  An uncoalesced
    one, and a {!relabel}ling of one, caches its count when first
    priced or read ({!pairs}), so until then it belongs to one domain:
    count it in the domain that made it before sharing it. *)

val volume : ?coalesce:bool -> Topology.t -> Message.traffic -> volume
(** [coalesce] (default [true]) merges same-pair messages.  Pass
    [false] to model the runtime's generic path for a {e general}
    affine communication: the pattern is too irregular to vectorize,
    so every element pays its own start-up — the very overhead the
    paper's decomposition removes.  Coalescing runs the traffic once,
    into a dense {!Volgraph.tally}; otherwise the first {!price} runs
    it.
    @raise Invalid_argument when coalescing a message whose endpoint
    is not a host. *)

val relabel : int array -> volume -> volume
(** [relabel perm v] is [v] with every rank [r] renamed [perm.(r)]:
    it prices and replays exactly like {!volume} of the renamed
    traffic, coalesced as [v] is, since a permutation keeps each
    pair's groups and the order of their first messages.  Its count
    is [v]'s, renamed, not a second run of the traffic.
    [perm] must be a permutation of the hosts, such as a
    [Mapping.t]. *)

val coalesce : Topology.t -> volume list -> volume
(** The coalesced {!volume} of the volumes' traffic run one after
    another, tallied from their counts ({!pairs}) rather than their
    messages. *)

val pairs : volume -> Message.traffic
(** Each group of the volume's count once, its bytes summed over its
    messages, local groups included, in the order of their first
    message: for a coalesced volume, one message per ordered pair.
    An uncoalesced volume not yet priced is counted when [pairs] is
    applied, so the stream can run inside another tally. *)

val priced : volume -> Message.traffic
(** The messages {!price} prices: the coalesced remote pairs in the
    order of their first message, or the uncoalesced traffic. *)

val replay : volume -> Message.traffic
(** The messages a simulator replays, in the order it injects them:
    the uncoalesced traffic itself, or one message per ordered pair,
    local pairs included, in the order a [Hashtbl] keyed by
    [(src, dst)] lists the pairs when they are added in the order of
    their first message.  That is the order message lists were
    coalesced in before traffic became a stream, and {!Eventsim}'s
    fault decisions, keyed on injection index, depend on it. *)

val price : ?faults:Fault.t -> Topology.t -> params -> volume -> stats
(** The pricing core.

    [faults] (default {!Fault.none}, zero-cost) switches on the
    degraded-capacity model described above.

    When {!Obs.enabled}, each pricing increments the [netsim.runs] /
    [netsim.messages] counters and feeds the [netsim.time] and
    [netsim.max_link_load] histograms, so a sweep leaves a
    machine-readable record of every pricing it performed;
    undeliverable messages also bump [fault.injected].

    Each (pair, size) group is routed once, and no telemetry is
    recorded.

    @raise Invalid_argument when a message endpoint is not a host. *)

val retime : params -> stats -> stats
(** [retime params s] is [s] with its [time] recomputed under
    [params]: [alpha * max(max_sender, max_receiver) + beta *
    max_link_load + hop * max_hops], or [0.0] when no message was
    delivered.  Every other field counts the topology's routes and
    the traffic, not the parameters, so [retime p (price ~faults topo
    p' v)] is [price ~faults topo p v] field for field, bit for bit:
    {!price} computes its time this way.  This is how a traffic
    priced once is priced on every model that shares its topology. *)

val link_loads :
  faults:Fault.t -> Topology.t -> Message.traffic -> ((int * int) * int) list
(** The effective load of every directed link some route crosses,
    sorted by link, for inspection: the accumulation {!price} takes
    the maximum of, without coalescing.  A link's effective load is
    the bytes routed over it divided by its capacity (a fat-tree
    uplink of capacity k carries k bytes per unit), inflated by the
    fault weight, rounded up per message — so it is bytes only on a
    healthy unit-capacity link.  Undeliverable messages contribute
    nothing.  The traffic is counted by (pair, size) first, as an
    uncoalesced {!price} counts it.
    @raise Invalid_argument when a message endpoint is not a host. *)

val pp_stats : Format.formatter -> stats -> unit
