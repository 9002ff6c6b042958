(** Running a virtual-grid communication under a layout on a machine
    model: the workhorse behind Table 2 and Figure 8. *)

open Linalg

val time :
  ?coalesce:bool ->
  ?faults:Machine.Fault.t ->
  Machine.Models.t ->
  layout:Layout.t ->
  vgrid:int array ->
  flow:Mat.t ->
  ?bytes:int ->
  unit ->
  Machine.Netsim.stats
(** Simulate the communication of data-flow matrix [flow] over the
    virtual grid, folded onto the model's topology by [layout].
    [coalesce:false] models the generic (non-vectorizable) runtime
    path used for a general affine communication; [faults] prices it
    on the degraded machine ({!Machine.Netsim.price}).  A searched
    process placement is priced by relabelling the traffic's volume
    ({!Machine.Netsim.relabel}), as [Residual] does. *)

val decomposed_time :
  ?faults:Machine.Fault.t ->
  Machine.Models.t ->
  layout:Layout.t ->
  vgrid:int array ->
  factors:Mat.t list ->
  unit ->
  Machine.Netsim.stats list
(** One phase per factor, executed in sequence (paper §5.3: "L and U
    are performed one after the other, not in parallel"); the phase of
    factor [f_i] moves the data that the remaining product still has to
    deliver.  The rightmost factor moves first.

    Each cell starts with one 8-byte item.  Phase [p] (from 0) sends every
    item from the cell the earlier phases left it on to that cell's
    successor under the phase's factor; it lists the items by starting
    cell, first to last in even phases and last to first in odd ones,
    which is the order the phase's volume lists its pairs in
    ({!Machine.Netsim.pairs}).  Each item's
    current cell is carried from phase to phase, so a call costs
    O(cells x phases) walk steps.  Its three cell-sized tables (ranks,
    item positions, successors) are borrowed from a
    {!Machine.Volgraph.lender}: each domain reuses them from one call
    to the next. *)

val total_time : Machine.Netsim.stats list -> float

val walk_phases :
  Machine.Topology.t ->
  layout:Layout.t ->
  vgrid:int array ->
  factors:Mat.t list ->
  bytes:int ->
  from:int ->
  (Machine.Netsim.volume -> bool) ->
  unit
(** The phase loop behind {!decomposed_time}, at [bytes] per item on
    the topology: phases [0 .. from - 1] move their items unpriced,
    then each later phase's messages are passed, in order, to the
    callback as one coalesced {!Machine.Netsim.volume}, until it
    returns [false] or the phases run out.  So the volume of phase [p]
    does not depend on [from], and a walk stopped after phase [k]
    resumes with [~from:(k + 1)].  A coalesced volume keeps its counts
    alone, not the walk's borrowed tables, so it stays valid after the
    callback returns.  This is how [Residual] keeps a decomposition's
    phases, unplaced and fault-free, as far as any model's direct path
    lets it, and prices them relabelled by each placement
    ({!Machine.Netsim.relabel}) under each fault model. *)
