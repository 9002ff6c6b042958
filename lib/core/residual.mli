(** Residual traffic of a communication plan, laid out on a machine.

    The one place that turns flows into traffic: every consumer of
    "what does this plan leave on the wire" — plan pricing under a
    searched placement ({!Cost.of_plan} [?mapping]), the bounds
    ({!Efficiency}), the serve mapping block, [report --net], [chaos]
    and the bench tables — reads a {!t} instead of re-deriving the
    cyclic fold, the placement function and the messages itself. *)

open Linalg

val flows_of_plan : Commplan.t -> Mat.t list
(** The 2x2 data-flow matrices of the plan's [General] and
    [Decomposed] entries, in plan order.  Possibly empty. *)

val flows_of_workload : m:int -> Workloads.t -> Mat.t list
(** Run the optimizer on the workload and extract its residual flows
    ({!flows_of_plan}): possibly empty.  A pipeline exception
    propagates. *)

type t = {
  topo : Machine.Topology.t;
  vgrid : int array;  (** the virtual grid the flows are folded from *)
  bytes : int;  (** item size of every message *)
  flows : Mat.t list;
  axes : int array array Lazy.t;
      (** the cyclic fold of [vgrid] onto [topo]'s 2-D host grid as
          per-axis placement tables ({!Distrib.Layout.axes}); built on
          first use, once *)
}

val make : vgrid:int array -> bytes:int -> Machine.Topology.t -> Mat.t list -> t
(** The flows on an explicit virtual grid, folded cyclically onto the
    topology.  The topology must have a 2-D host grid. *)

val on_model : bytes:int -> Machine.Models.t -> Mat.t list -> t option
(** The flows on the model's simulation grid — four virtual processors
    per physical one in each dimension, the grid {!Cost} prices 2-D
    flows on.  [None] when the model's topology has no 2-D host grid. *)

val ranks : t -> int array
(** The cyclic fold as a cell→rank table, read off the fold's axis
    tables ({!Machine.Patterns.ranks}). *)

val traffic : ?placement:Mapping.t -> t -> Machine.Message.traffic
(** The flows' messages ({!Machine.Patterns.traffic}), flow after
    flow, with [placement] composed after the fold when given. *)

val volume_graph : t -> Machine.Volgraph.t
(** The messages collapsed to a canonical (sorted) volume graph — the
    input the mapping search minimizes over. *)

val placement : Mapping.spec -> t -> Mapping.t
(** The process placement [spec] picks for this traffic's volume
    graph on its topology. *)
