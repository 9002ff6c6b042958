(** Brute-force semantic validation of a communication plan.

    The optimizer's claims are algebraic (kernel intersections, matrix
    equations); this module re-checks them by enumerating the actual
    iteration domain of every statement and comparing, point by point,
    where each datum lives and who touches it:

    - [Local]: the computing processor owns the element, at every
      iteration;
    - [Translation]: the owner is at a constant non-zero offset;
    - [Broadcast]: some element is read by at least two distinct
      processors at the same timestep, and moving along every claimed
      source direction keeps the timestep and the element while moving
      the processor;
    - [Reduction]: two instances at the same timestep on the same
      processor consume data from distinct owners;
    - [Scatter]/[Gather]: one owner feeds (collects from) several
      processors with distinct elements at the same timestep;
    - [Decomposed]/[General]: the processor-to-owner offset is {e not}
      constant (otherwise the access should have been local or a
      translation).

    This is an executable counterpart of the paper's §3 definitions and
    a safety net for the whole algebra. *)

type violation = { stmt : string; label : string; reason : string }

val check : Pipeline.result -> violation list
(** Empty list = the plan is consistent with the brute-force
    enumeration.  The enumeration caps every extent of a statement's
    iteration domain at 6 (the box [[0, min(extent, 6))]), so its
    point count stays tractable whatever the domain's size. *)

val is_valid : Pipeline.result -> bool
