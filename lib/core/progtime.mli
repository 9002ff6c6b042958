(** End-to-end program-time estimation.

    Everything before this module prices one communication at a time;
    here the whole mapped program is walked timestep by timestep: each
    step pays its parallel compute plus the network time of the
    messages its non-local accesses generate (via {!Machine.Netsim}),
    and vectorizable accesses pay their traffic once, in a hoisted
    preamble.  This is the number the paper's whole pipeline exists to
    reduce — and the one on which the Example 5 comparison is starkest:
    the zero-communication mapping is flat in [n], the preserved
    broadcast pays every timestep. *)

type breakdown = {
  timesteps : int;
  compute : float;
  hoisted_comm : float;
  per_step_comm : float;
  total : float;
}

val of_pipeline : model:Machine.Models.t -> Pipeline.result -> breakdown
(** Extents are capped (per dimension) to keep enumeration tractable;
    the estimate is for the capped program.  8-byte items, one time
    unit of compute per instance, on {!Distexec.machine}. *)

val of_platonoff : model:Machine.Models.t -> Platonoff.result -> breakdown
(** The same estimate for the Platonoff baseline's plan. *)

val pp : Format.formatter -> breakdown -> unit
