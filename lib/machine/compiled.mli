(** A topology compiled once per process for the pricing loops.

    {!Netsim} charges every hop of every message to a link, and the
    placement search ([lib/mapping]) and the lower bounds
    ([lib/bounds]) read host-to-host distances in their inner loops.
    This module gives each topology one compiled form holding
    - dense {e directed} link ids [0 .. nlinks - 1], in the
      lexicographic order of their [(from, to)] endpoints, each with
      its capacity;
    - a dense [n x n] host-pair table of {!Topology.route}s as
      [int array]s of link ids, each slot filled the first time its
      pair is routed (so only routed pairs pay for a route, but the
      table itself holds [n^2] slots);
    - the [n x n] {!Topology.distance} table, built on first request.

    Compiled forms are keyed by the canonical spec
    {!Topology.to_string}, so two equal topologies built separately
    (every [Models.cm5 ()] call builds a fresh value) share one.  They
    are safe to share across domains: the registry takes a mutex once
    per {!get}; a route slot is a plain array write, and two domains
    racing to fill the same slot store equal arrays, so either may
    win; the distance table is published through an [Atomic].  No
    lock is taken per message. *)

type t

val get : Topology.t -> t
(** The compiled form of the topology's spec, built on the first
    request from any domain. *)

val topology : t -> Topology.t

val nlinks : t -> int
(** Number of directed links: two per physical link. *)

val link : t -> int -> int * int
(** [(from, to)] endpoints of a directed link id. *)

val capacity : t -> int -> int
(** {!Topology.link_capacity} of a directed link id. *)

val undirected : t -> ((int * int) * int) list
(** {!Topology.links}, computed once. *)

val hosts : t -> int
(** {!Topology.size}: the hosts routes run between. *)

val route : t -> src:int -> dst:int -> int array
(** The link ids of [Topology.route ~src ~dst], in hop order; empty
    when [src = dst].  The result is shared: do not mutate it.
    @raise Invalid_argument when an endpoint is not a host. *)

val ids_of_hops : t -> (int * int) list -> int array
(** The link ids of an explicit hop list, such as a
    {!Fault.route} detour.
    @raise Not_found on a hop that is not a link. *)

val distances : t -> int array array
(** [d.(src).(dst) = Topology.distance ~src ~dst] over the hosts.
    Shared by every caller: do not mutate it. *)
