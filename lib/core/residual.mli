(** Residual traffic of a communication plan, laid out on a machine.

    The one place that turns flows into traffic: every consumer of
    "what does this plan leave on the wire" — plan pricing ({!Cost}),
    the bounds ({!Efficiency}), the serve mapping block, [report
    --net], [chaos] and the bench tables — reads a {!t} instead of
    re-deriving the cyclic fold, the placement function and the
    messages itself.

    {2 The fold}

    A {!t} is the fold of some flows onto one topology.  It reads
    neither a model's wire parameters nor its collectives, so a sweep
    cell builds one per distinct (topology, flows) ({!shared}) and
    every row whose model has that topology, the optimized plan's and
    the baseline's alike when their flows are equal, reads the same
    fold.  Nothing is computed until asked for, and nothing twice:
    - each flow's messages are walked once, into an uncoalesced
      {!Machine.Netsim.volume} counted by (pair, size) on its first
      price;
    - the volume graph ({!volume_graph}) and the coalesced traffic
      are read off those counts, not off the messages;
    - each mapping spec's placement is searched at most once
      ({!placement});
    - a price under a placement reads the counts relabelled by it
      ({!Machine.Netsim.relabel}): a placement only renames ranks, so
      the relabelled count is exactly the count of the remapped
      traffic;
    - each decomposition's phases are walked once, as far as some
      price needs them, into unplaced, fault-free coalesced volumes
      that a price under a placement reads relabelled, like the
      flows';
    - under each (placement, faults), each flow's direct path
      ({!flow_price}), each decomposition's phases ({!decomposed_total})
      and the transfer-time bound ({!transfer_time}) are priced once,
      and a price on another model is the kept stats retimed to its
      parameters ({!Machine.Netsim.retime}, {!Bounds.retime}): the
      same bits a fresh price gives.

    A price answered from what the fold kept runs no Netsim, so it
    adds nothing to the [netsim.*] counters.  A fold caches as it goes,
    so it belongs to one domain at a time, and it lives as long as
    whoever built it: a sweep cell, a served answer. *)

open Linalg

val flows_of_workload : m:int -> Workloads.t -> Mat.t list
(** Run the optimizer on the workload and extract its residual flows,
    the 2x2 data-flow matrices of the plan's [General] and
    [Decomposed] entries in plan order: possibly empty.  A pipeline
    exception propagates. *)

type t = {
  topo : Machine.Topology.t;
  vgrid : int array;  (** the virtual grid the flows are folded from *)
  bytes : int;  (** item size of every message *)
  flows : Mat.t list;
  axes : int array array Lazy.t;
      (** the cyclic fold of [vgrid] onto [topo]'s 2-D host grid as
          per-axis placement tables ({!Distrib.Layout.axes}); built on
          first use, once *)
  volumes : Machine.Netsim.volume list Lazy.t;
      (** one uncoalesced volume per flow, in flow order *)
  mutable placements : (Mapping.spec * Mapping.t) list;
      (** the placements {!placement} has searched so far *)
  priced : priced;  (** what the fold has priced so far *)
}

and priced

val make : vgrid:int array -> bytes:int -> Machine.Topology.t -> Mat.t list -> t
(** The flows on an explicit virtual grid, folded cyclically onto the
    topology.  The topology must have a 2-D host grid. *)

val on_model : bytes:int -> Machine.Models.t -> Mat.t list -> t option
(** The flows on the model's simulation grid — four virtual processors
    per physical one in each dimension, the grid {!Cost} prices 2-D
    flows on.  [None] when the model's topology has no 2-D host grid. *)

val of_plan : Machine.Models.t -> Commplan.t -> t option
(** The plan's residual flows {!on_model} at 64-byte items:
    the fold {!Cost} prices a plan on and {!Efficiency} bounds. *)

val shared : unit -> Machine.Models.t -> Commplan.t -> t option
(** [shared ()] is {!of_plan} that builds one fold per distinct
    (topology, flows) it is asked for and answers every later request
    for the same pair with that fold: the fold a sweep cell or a
    served answer prices all its rows on.  The table lives as long as
    the function, so nothing outlives its caller. *)

val traffic : ?placement:Mapping.t -> t -> Machine.Message.traffic
(** The flows' messages ({!Machine.Patterns.traffic}), flow after
    flow, with [placement] composed after the fold when given. *)

val flow_price :
  t ->
  faults:Machine.Fault.t ->
  Mapping.t option ->
  Machine.Netsim.params ->
  Mat.t ->
  Machine.Netsim.stats
(** [flow_price t ~faults placement net flow] is the
    {!Machine.Netsim.price} under [faults] and [net] of one flow's
    messages, uncoalesced, relabelled by the placement when one is
    given: {!Cost}'s direct path of a 2x2 flow.
    @raise Invalid_argument when the matrix is not one of the
    flows. *)

val decomposed_total :
  t ->
  faults:Machine.Fault.t ->
  Mapping.t option ->
  Machine.Models.t ->
  layout:Distrib.Layout.t ->
  factors:Mat.t list ->
  limit:float ->
  float
(** The phases of a decomposition ({!Distrib.Foldsim.walk_phases} on
    the fold's grid, at its item size, relabelled by the placement and
    priced under [faults]), their times summed in phase order from
    [0.0] until the running total reaches [limit]: that partial total,
    or the whole sum.  Times are never negative, so [min (decomposed_total ~limit:d
    ...) d] is [min] of [d] and every phase's time summed: this is how
    a decomposition is priced against the direct path without walking
    the phases that cannot win.  The model must have the fold's
    topology. *)

val bound_volume : t -> Bounds.volume
(** The volume bound of the flows ({!Bounds.volume}) against the
    cyclic fold's balance, computed once. *)

val transfer_time : t -> Mapping.t option -> Machine.Netsim.params -> Bounds.time
(** {!Bounds.transfer_time} of every flow's messages, coalesced and
    relabelled by the placement when one is given: the fault-free
    achieved side {!Efficiency} bounds. *)

val volume_graph : t -> Machine.Volgraph.t
(** The messages collapsed to a canonical (sorted) volume graph — the
    input the mapping search minimizes over. *)

val placement : Mapping.spec -> t -> Mapping.t
(** The process placement [spec] picks for this traffic's volume
    graph on its topology, searched on the first call for [spec]. *)
