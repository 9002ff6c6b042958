(** Achieved-vs-bound efficiency of a plan's residual traffic.

    The workload-facing glue over {!Bounds}: take a plan's residual
    traffic ({!Residual.t} — the same cyclic fold {!Cost} prices and
    the mapping layer searches), compute the volume and transfer-time
    lower bounds, and price the achieved side — one record that every
    observability surface (sweep column, [report --net] panel,
    [bounds] subcommand, serve stats, bench) renders from.

    The model-taking entry points are [None] whenever the model's
    topology has no 2-D host grid ({!Residual.on_model}): the residual
    flows are 2x2, so there is nothing to bound (the t3d rows of a
    sweep render ["-"]).

    When {!Obs} is enabled, every computation feeds the [bounds.*]
    counters ([bounds.computed], [bounds.bound_bytes],
    [bounds.achieved_bytes]), the [bounds.efficiency] histogram and
    the [bounds.last_efficiency] gauge. *)

type t = {
  vgrid : int array;  (** the simulation grid the flows were folded on *)
  volume : Bounds.volume;
  time : Bounds.time;
}

val of_traffic : ?mapping:Mapping.spec -> Machine.Netsim.params -> Residual.t -> t
(** Bound the traffic and price its achieved side on the network
    [net].  [mapping] re-prices the achieved side (and the
    placement-dependent time bound) under the searched process
    placement — the volume bound is placement-independent, so
    [volume.bound_bytes <= volume.achieved_bytes] holds either way.

    The volume bound and the achieved side are the fold's
    ({!Residual.bound_volume}, {!Residual.transfer_time}: its counts
    relabelled by the placement, bounded once per placement and
    retimed to [net] after), and the placement is the fold's own
    ({!Residual.placement}): bounding a fold that {!Cost.of_fold} has
    already priced walks no flow's messages again and searches no
    placement again, and bounding it again for another model with the
    fold's topology routes no message.

    Traffic without flows bounds an empty set: zero bytes both sides,
    efficiency 1.0, and no placement is searched.  [cells], [nprocs]
    and [cap] still describe the fold's balance, read by
    {!Bounds.volume} off the cell→rank table, and the empty volume
    is still priced (one [netsim.runs] per fold and placement), so the
    record and the counters are those of any other traffic. *)

val of_plan : ?mapping:Mapping.spec -> Machine.Models.t -> Commplan.t -> t option
(** {!of_traffic} over the plan's fold ({!Residual.of_plan}): its
    flows with 64-byte items (as {!Cost.of_plan}), on the model's
    simulation grid. *)

val of_workload :
  ?bytes:int ->
  ?mapping:Mapping.spec ->
  m:int ->
  Machine.Models.t ->
  Workloads.t ->
  t option
(** {!of_traffic} over {!Residual.flows_of_workload} (possibly no
    flows), on the model's simulation grid.  [bytes] defaults to
    64. *)

val pp : Format.formatter -> t -> unit
(** The ASCII bounds panel: volume bound vs achieved bytes, the three
    time-bound components against their achieved counterparts, and the
    efficiency gauge.  Ends with a line of the form
    ["efficiency 0.729 \[...\] 72.9%"] — the line the CI smoke gate
    parses.  Traffic without flows prints the one line
    ["no residual traffic: efficiency n/a"] instead. *)
