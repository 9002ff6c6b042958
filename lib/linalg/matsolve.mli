(** Integer linear systems, through the Smith normal form. *)

val solve_linear_int : Mat.t -> int array -> int array option
(** [solve_linear_int a b] is an integer solution [y] of [a y = b], if
    one exists (via the Smith form of [a]).  The workhorse behind the
    GCD dependence test. *)
