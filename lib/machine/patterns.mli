(** Communication patterns induced by affine data-flow matrices.

    A residual communication of data-flow matrix [T] makes virtual
    processor [v] send its item to [T v + offset].  The virtual index
    space is toroidal: destinations are taken modulo the grid extents,
    so a determinant-1 data flow is a bijection of the virtual space
    and every layout is compared on the same number of messages (no
    boundary artifacts).

    Virtual cells are numbered in row-major order (the last dimension
    varies fastest), the order {!iter_box} visits them.  A placement
    is given per axis: [axes.(d).(x)] is what coordinate [x] of axis
    [d] adds to a cell's rank ([Distrib.Layout.axes]), so a cell's
    rank is a sum of table lookups.  {!iter_flow} walks a flow's cells
    with an odometer, so a destination costs additions and no
    division, and {!traffic} streams a flow's messages to {!Netsim}
    with integer arithmetic alone: no message record, and no array per
    cell. *)

open Linalg

val iter_box : int array -> (int array -> unit) -> unit
(** Enumerate all integer points of the box [[0, extent_i)] in
    row-major order. *)

val cells : int array -> int
(** The number of points {!iter_box} visits: the product of the
    extents, 0 for an empty or degenerate box. *)

val check_flow : vgrid:int array -> Mat.t -> unit
(** @raise Invalid_argument when the flow is not [d x d], for [d] the
    rank of [vgrid]. *)

val iter_flow :
  rev:bool ->
  vgrid:int array ->
  Mat.t ->
  (int array -> int array -> unit) ->
  unit
(** [iter_flow ~rev ~vgrid flow f] calls [f v w] once per cell [v],
    where [w] is [v]'s destination [flow v] wrapped onto
    [vgrid].  Cells are visited in row-major order, the order of
    {!iter_box}, or exactly reversed (last to first) with [rev]; the
    successor and traffic functions below inherit that order.

    The walk is an odometer and pays no division per cell: [v] steps
    its last coordinate by one and carries into the one before at the
    end of an axis, and [w] follows by adding residues computed once
    per call — for each axis, what one step of [v] along it adds to
    each coordinate of [w] and what wrapping it back adds, both
    reduced modulo the extents — then subtracting the extent at most
    once per coordinate.  [v] and [w] are buffers the walk reuses and
    updates in place: [f] must not modify them, and must copy them to
    keep them.
    @raise Invalid_argument when [flow] is not [d x d], for [d] the
    rank of [vgrid]. *)

val successors : vgrid:int array -> Mat.t -> int array
(** [(successors ~vgrid flow).(i)] is the index of cell [i]'s
    destination [flow v], wrapped.
    @raise Invalid_argument as {!iter_flow}. *)

val fill_successors : vgrid:int array -> Mat.t -> int array -> unit
(** {!successors} written into the first {!cells} entries of a
    caller's array. *)

val fill_ranks : axes:int array array -> vgrid:int array -> int array -> unit
(** Every cell's rank under the per-axis placement tables, row-major,
    written into the first {!cells} entries of a caller's array: the
    cell→rank table. *)

val traffic :
  vgrid:int array ->
  axes:int array array ->
  ?remap:int array ->
  bytes:int ->
  Mat.t list ->
  Message.traffic
(** The flows' messages under a placement: for each flow in turn, one
    message of [bytes] from each cell's rank to its destination's,
    cells taken from last to first: the order {!Eventsim} replays an
    uncoalesced volume of them in.  Local messages are kept.
    @raise Invalid_argument, when run, as {!successors} does or on a
    negative [bytes]. *)

type boundary = [ `Wrap | `Clip ]

val translation_messages :
  boundary:boundary ->
  vgrid:int array ->
  shift:int array ->
  bytes:int ->
  place:(int array -> int) ->
  unit ->
  Message.t list
(** One message per virtual processor [v] towards [v + shift], the
    destination wrapped ([`Wrap]) or, out of range, dropped
    ([`Clip]). *)
