(** Fitting cost-model parameters from measurements.

    The era's methodology (LogP/LogGP): time a communication primitive
    at several message sizes, then fit [time = alpha + beta * bytes]
    by least squares.  Used to re-derive the closed-form model's
    parameters from event-simulation runs — closing the loop between
    the two simulators. *)

type fit = { alpha : float; beta : float; residual : float }

val linear_fit : (int * float) list -> fit
(** Least-squares fit of [(bytes, time)] samples.
    @raise Invalid_argument with fewer than two distinct sizes. *)

val fit_model : Topology.t -> Eventsim.params -> fit
(** A single neighbour message event-simulated at each size of a
    standard sweep, and the cycle counts fitted. *)
