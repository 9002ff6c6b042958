(** The Feautrier-style greedy baseline (paper §7.1).

    Feautrier's placement heuristic zeroes out the edges carrying the
    largest communication volume first and stops there: no
    macro-communication extraction, no decomposition.  Our access-graph
    weights already implement the volume estimate (the rank of the
    access matrix), so this baseline is exactly step 1 of the paper's
    heuristic with every residual left as a general communication —
    the ablation that isolates the value of step 2.

    The baseline is therefore derived, not recomputed: {!of_pipeline}
    downgrades the step-1 allocation and plan that {!Pipeline.run}
    keeps ([step1_alloc], [step1_plan]), so pricing the optimized plan
    against the baseline costs one run of step 1, not two. *)

open Nestir

type result = {
  nest : Loopnest.t;
  m : int;
  alloc : Alignment.Alloc.t;
  plan : Commplan.t;  (** residuals downgraded to [General] *)
}

val of_pipeline : Pipeline.result -> result
(** The baseline of a pipeline run: its step-1 allocation, and its
    step-1 plan with every macro-communication and decomposition
    downgraded to a general communication.  Rotations (step 2a) are
    ignored: the baseline never rotates. *)

val run : ?m:int -> schedule:Schedule.t -> Loopnest.t -> result
(** [of_pipeline] of a {!Pipeline.run} without rotations: for callers
    that want the baseline alone. *)

val summary : result -> Commplan.summary
