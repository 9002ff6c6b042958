(** Pricing a communication plan on a machine model.

    Turns a {!Commplan.t} into time units: each entry is charged the
    cost of its communication class on the given machine (hardware
    collectives when available, simulated elementary phases for
    decomposed flows, the generic non-vectorizable path for general
    communications).  This is how the heuristic's value is summarized:
    run {!Pipeline} and the {!Feautrier} baseline on the same nest and
    compare totals. *)

type entry_cost = {
  stmt : string;
  label : string;
  class_name : string;
  cost : float;
}

type breakdown = { entries : entry_cost list; total : float }

val of_plan :
  ?faults:Machine.Fault.t ->
  ?mapping:Mapping.spec ->
  Machine.Models.t ->
  Commplan.t ->
  breakdown
(** Items are 64 bytes.  2x2 flows are simulated on the plan's
    residual traffic grid ({!Residual.on_model}); models without a 2-D
    grid price them through the closed-form fallbacks.

    [faults] (default {!Machine.Fault.none}, zero-cost) prices the
    plan on the degraded machine: simulated entries (decomposed and
    2x2 general flows) go through {!Machine.Netsim}'s
    degraded-capacity model, detours and all; closed-form entries
    (collectives, translations, the non-square fallback) scale by
    {!Machine.Fault.uniform_slowdown}.  Comparing a plan's price with
    and without faults — or the optimized plan against the baseline
    under the same faults — is how mapping {e resilience} is
    measured ({!Sweep}).  No price reads the schedule's seed, which
    only drives Eventsim's per-packet drops.

    [mapping] prices the plan under a searched process placement: the
    placement {!Residual.placement} picks for the plan's residual
    traffic is composed after the layout fold for every simulated
    entry (2x2 general flows and decomposed phases);
    closed-form entries (collectives, translations) are
    placement-invariant and unchanged.  On models without a 2-D
    simulation grid, or plans without 2x2 flows, [mapping] is a no-op.
    Omitting it keeps pricing byte-identical to a build without the
    mapping subsystem.

    This is {!of_fold} over [Residual.of_plan model plan]. *)

val of_fold :
  faults:Machine.Fault.t ->
  mapping:Mapping.spec option ->
  Machine.Models.t ->
  Residual.t option ->
  Commplan.t ->
  breakdown
(** {!of_plan} on a fold the caller built: [of_fold ~faults ~mapping
    model (Residual.of_plan model plan) plan] is [of_plan ~faults
    ?mapping model plan], bit for bit.  A caller
    that prices one plan several ways — under fault rates, with and
    without a placement, on several models — and bounds it
    ({!Efficiency.of_traffic}) passes every call the same fold, so
    each 2x2 flow's messages are walked once, each placement is
    searched once, and under each (placement, faults) each flow's
    direct path and each decomposition's phases are priced once: a
    later model reads them retimed to its wire parameters
    ({!Residual.flow_price}, {!Residual.decomposed_total}).  The fold
    must hold this plan's flows on this model's topology, as
    [Residual.of_plan] of the plan on any model with that topology
    does ({!Residual.shared}): a 2x2 flow it does not hold raises
    [Invalid_argument]. *)
