(** Residual traffic of a communication plan, laid out on a machine.

    The one place that turns flows into traffic: every consumer of
    "what does this plan leave on the wire" — plan pricing ({!Cost}),
    the bounds ({!Efficiency}), the serve mapping block, [report
    --net], [chaos] and the bench tables — reads a {!t} instead of
    re-deriving the cyclic fold, the placement function and the
    messages itself.

    {2 The fold}

    A {!t} is one row's fold: built once per (plan, model), it is what
    every price of that row's residual traffic reads.  Nothing is
    computed until asked for, and nothing twice:
    - each flow's messages are walked once, into an uncoalesced
      {!Machine.Netsim.volume} counted by (pair, size) on its first
      price ({!flow_volume});
    - the volume graph ({!volume_graph}) and the coalesced traffic
      ({!volume}) are read off those counts, not off the messages;
    - each mapping spec's placement is searched at most once
      ({!placement});
    - a price under a placement reads the counts relabelled by it
      ({!Machine.Netsim.relabel}): a placement only renames ranks, so
      the relabelled count is exactly the count of the remapped
      traffic.

    A fold caches as it goes, so it belongs to one domain at a time. *)

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
}

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

val with_ranks : t -> (int array -> 'a) -> 'a
(** [with_ranks t f] is [f] applied to the cyclic fold as a cell→rank
    table, filled from the fold's axis tables
    ({!Machine.Patterns.fill_ranks}).  The table is {!Machine.Volgraph.borrow}ed
    per domain: it is valid only while [f] runs, and may be longer than
    the fold's cells, which come first. *)

val traffic : ?placement:Mapping.t -> t -> Machine.Message.traffic
(** The flows' messages ({!Machine.Patterns.traffic}), flow after
    flow, with [placement] composed after the fold when given. *)

val flow_volume : t -> Mapping.t option -> Mat.t -> Machine.Netsim.volume
(** The uncoalesced volume of one of the flows, relabelled by the
    placement when one is given: the traffic {!Cost} prices a 2x2
    flow's direct path on.
    @raise Invalid_argument when the matrix is not one of the
    flows. *)

val volume : t -> Mapping.t option -> Machine.Netsim.volume
(** Every flow's messages, coalesced ({!Machine.Netsim.coalesce}) and
    relabelled by the placement when one is given: the traffic
    {!Bounds.transfer_time} bounds. *)

val volume_graph : t -> Machine.Volgraph.t
(** The messages collapsed to a canonical (sorted) volume graph — the
    input the mapping search minimizes over. *)

val placement : Mapping.spec -> t -> Mapping.t
(** The process placement [spec] picks for this traffic's volume
    graph on its topology, searched on the first call for [spec]. *)
