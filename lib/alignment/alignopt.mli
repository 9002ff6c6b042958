(** Exhaustive-optimal alignment, for measuring the heuristic.

    A set of accesses is simultaneously localizable iff the linear
    system [{M_S = M_x F}] (over the entries of all allocation
    matrices) has a solution in which every matrix keeps full rank
    [m].  The solution space is computed exactly (kernel of the
    stacked constraints); the rank condition is checked on
    deterministic and seeded-random samples of that space, so
    [feasible] may under-approximate in contrived cases but never
    over-approximates.

    [optimal_local_count] scans subsets from largest to smallest —
    exponential in the access count, fine at paper scale — giving the
    yardstick against which {!Alloc}'s branching heuristic is
    measured. *)

val eligible : m:int -> Nestir.Loopnest.t -> (string * string) list
(** The accesses the access graph would represent (full rank, within
    dimension bounds): the universe of the optimization. *)

val feasible : m:int -> Nestir.Loopnest.t -> (string * string) list -> bool
(** Can this subset of accesses be made local simultaneously? *)

val optimal_local_count : m:int -> Nestir.Loopnest.t -> int
(** Size of the largest feasible subset, by exhaustive search over the
    2^n subsets of the n eligible accesses; n is capped at 12.
    @raise Invalid_argument when there are more. *)

val heuristic_gap : m:int -> Nestir.Loopnest.t -> int * int
(** [(heuristic, optimal)] local counts. *)
