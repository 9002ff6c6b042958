(** Communication lower bounds for affine residual flows.

    Every benchmark in this repository reports "faster than the naive
    plan"; this module supplies the ground truth the north star needs —
    "how close to optimal" — in the spirit of the HBL lower-bound line
    of work (Christ–Demmel–Knight–Scanlon–Yelick, and Dinh–Demmel's
    projective-nested-loop tilings): computable per-workload
    communication lower bounds for exactly the affine array-reference
    programs the pipeline parses.

    Two bounds are computed, both {e provable} against what the rest of
    the system actually measures, so achieved-vs-bound efficiencies are
    guaranteed to land in [(0, 1]]:

    {2 Volume bound ({!volume})}

    A residual flow [F] (a unimodular data-flow matrix) makes virtual
    cell [v] send its item to [F v], taken modulo the virtual
    grid — a {e permutation} of the cells.  Decompose that permutation
    into orbits (cycles).  Any placement that assigns at most [cap]
    cells per processor must color an orbit of length [L] with at least
    [ceil(L / cap)] distinct processors, and a cycle through [c >= 2]
    distinct colors crosses a color boundary at least [c] times; each
    crossing is one nonlocal message.  Summed over orbits and flows and
    scaled by the item size, this is a lower bound on the nonlocal
    bytes of {e every} placement at most as balanced as the given one —
    the paper's cyclic fold included, which is how
    [bound_bytes <= achieved_bytes] holds by construction.  The
    HBL-style classifier [rank(F - I)] (0 = identity, fully local;
    1 = shear, a one-dimensional family; full rank = complete mix) and
    the memory-independent per-processor bound
    [ceil(bound_bytes / nprocs)] ride along.

    {2 Transfer-time bound ({!transfer_time})}

    For a concrete coalesced volume on a concrete {!Machine.Topology},
    each component of {!Machine.Netsim}'s price
    [alpha * serial + beta * max_link_load + hop * max_hops] is bounded
    from below by a quantity no routing or scheduling can beat:
    - [serial_lb]: the maximum number of distinct peers any single
      node must send to or receive from (ports are serial) — equal to
      Netsim's serial term on the same coalesced multiset;
    - [link_lb]: the largest of (a) per-node injection/ejection
      pigeonhole — a node's traffic leaves over its incident links,
      divided by their count, each load at least [bytes / max
      incident capacity]; (b) on switchless topologies, the
      host-bipartition (bisection-style) cut — bytes that must cross
      the halves over the crossing links; (c) the distance-weighted
      average — every message loads at least [distance] links, spread
      over all directed links;
    - [hops_lb]: the topology's minimal route length of the farthest
      message — no route, detours included, is shorter.

    The resulting [bound_time] is positive whenever any nonlocal
    message exists, and never exceeds the achieved Netsim time, so
    [efficiency = bound_time / achieved_time] is in [(0, 1]] (1.0 when
    there is no traffic at all).

    The module is dependency-free beyond [linalg] and [machine]; the
    placement arrives as a plain cell→rank table, so nothing here
    depends on the distribution or pipeline layers.  {!transfer_time}
    prices the achieved side through {!Machine.Netsim.price}. *)

type volume = {
  flows : int;  (** number of residual flows folded into the bound *)
  flow_rank : int;
      (** max over flows of [rank(F - I)]: 0 = fully local, full rank
          = complete mix — the HBL-style access classifier *)
  cells : int;  (** virtual cells enumerated *)
  nprocs : int;  (** processors the placement actually uses *)
  cap : int;  (** max cells per processor under the given placement *)
  orbits : int;  (** orbit count of the flow permutations, all flows *)
  longest_orbit : int;
  bound_bytes : int;
      (** lower bound on nonlocal bytes for every placement at most as
          balanced as the given one *)
  achieved_bytes : int;  (** nonlocal bytes under the given placement *)
  per_proc_bound : int;
      (** memory-independent bound: [ceil(bound_bytes / nprocs)] *)
}

val volume :
  vgrid:int array ->
  bytes:int ->
  owner:int array ->
  Linalg.Mat.t list ->
  volume
(** [volume ~vgrid ~bytes ~owner flows] — orbit-decompose each flow's
    permutation of the wrapped [vgrid] and accumulate the cycle-packing
    bound against the placement's balance.  [owner.(i)] is the rank
    of the [i]-th cell of [vgrid] in row-major order (a
    {!Machine.Patterns.fill_ranks} table); entries past the last cell are
    ignored, so a borrowed buffer can serve.
    @raise Invalid_argument when a flow's shape does not match
    [vgrid], or [owner] is shorter than the cell count. *)

type time = {
  serial_lb : int;
  link_lb : int;
  hops_lb : int;
  bound_time : float;
      (** [alpha * serial_lb + beta * link_lb + hop * hops_lb]; 0.0
          when there is no nonlocal traffic *)
  achieved : Machine.Netsim.stats;
      (** the fault-free Netsim price of the same multiset *)
  efficiency : float;
      (** [bound_time / achieved.time], in [(0, 1]]; 1.0 when there is
          no traffic *)
}

val transfer_time :
  Machine.Topology.t ->
  Machine.Netsim.params ->
  Machine.Netsim.volume ->
  time
(** Bound and price the given volume, coalesced as a rule (locals
    left out, the rest summed per endpoint pair): it is priced by
    {!Machine.Netsim.price} and its remote pairs
    ({!Machine.Netsim.priced}) are read for the three lower bounds. *)

val retime : Machine.Netsim.params -> time -> time
(** [retime params t] is [t] with [bound_time], [achieved] (through
    {!Machine.Netsim.retime}) and [efficiency] recomputed under
    [params]: [serial_lb], [link_lb], [hops_lb] and the achieved
    counts are the topology's and the traffic's, so [retime p
    (transfer_time topo p' v)] is [transfer_time topo p v] field for
    field, bit for bit.  {!transfer_time} computes its times this
    way. *)

val bar : float -> string
(** [bar eff] renders an efficiency in [[0, 1]] as a 20-cell ASCII
    gauge, e.g. ["[#########-----------]"]. *)
