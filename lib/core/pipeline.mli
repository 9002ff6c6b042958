(** The paper's complete two-step heuristic (§6).

    1. Zero out non-local communications: access graph, maximum
    branching, multiple-path/cycle additions (delegated to
    {!Alignment.Alloc}).

    2. Optimize the residual communications: classify them
    ({!Commplan}); when a partial macro-communication is not parallel
    to the grid axes, left-multiply the allocation matrices of its
    connected component by the unimodular rotation computed from the
    right Hermite form of the direction matrix ({!Macrocomm.Axis}),
    then re-classify; remaining general communications are decomposed
    into elementary ones. *)

open Linalg
open Nestir

type result = {
  nest : Loopnest.t;
  m : int;
  schedule : Schedule.t;
  alloc : Alignment.Alloc.t;
  plan : Commplan.t;
  rotations : (int * Mat.t) list;
      (** unimodular matrix applied to each rotated component *)
  step1_alloc : Alignment.Alloc.t;
      (** step 1's allocation, before any rotation: the one the
          {!Feautrier} baseline keeps *)
  step1_plan : Commplan.t;
      (** {!Commplan.build} of [step1_alloc], the plan the rotations
          start from; equal to [plan] when nothing was rotated *)
}

val run :
  ?m:int ->
  ?schedule:Schedule.t ->
  ?axis_align:bool ->
  Loopnest.t ->
  result
(** [m] defaults to 2 (a 2-D virtual grid, the Paragon case).
    [schedule] defaults to the all-parallel schedule.  [axis_align]
    (default true) enables the unimodular rotations of step 2a; turning
    it off is the ablation that leaves partial macro-communications
    diagonal. *)

val summary : result -> Commplan.summary

val non_local : result -> int
(** Number of accesses that are neither local nor plain translations:
    the communications that actually cross the network at runtime. *)

val pp : Format.formatter -> result -> unit
