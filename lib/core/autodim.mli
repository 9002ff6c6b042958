(** Choosing the dimension of the virtual processor grid.

    The paper observes the trade-off (§1): a larger target dimension
    leaves more residual communications, a smaller one wastes
    parallelism.  This module quantifies it: run the pipeline for each
    candidate [m], price the plan on a machine model, and expose both
    the table and the cheapest choice. *)

type row = { m : int; cost : float; non_local : int; parallel_dims : int }

val evaluate : Nestir.Loopnest.t -> row list
(** The candidates [m = 1, 2, 3], priced on the Paragon model.
    Candidates the alignment cannot materialize are skipped. *)

val best : Nestir.Loopnest.t -> int
(** The [m] with the lowest communication cost; ties go to the larger
    [m] (more parallelism at equal cost).
    @raise Failure when no candidate materializes. *)

val pp : Format.formatter -> row list -> unit
