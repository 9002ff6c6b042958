(** Fourier-Motzkin elimination over the rationals.

    The workhorse of polyhedral dependence analysis in the paper's
    era: a system of affine inequalities [sum a_i x_i <= b] is tested
    for rational feasibility by eliminating one variable at a time.
    Exponential in the worst case, fine at loop-nest sizes.

    Used by {!Nestir.Dep} as a dependence test that is exact over the
    rationals — strictly sharper than Banerjee's bounds test, and a
    sound over-approximation of integer feasibility. *)

type constr = { coeffs : Rat.t array; bound : Rat.t }
(** [coeffs . x <= bound]. *)

type system = { nvars : int; constrs : constr list }

val make : nvars:int -> system

val add_le : system -> int array -> int -> system
(** [coeffs . x <= bound] with integer data. *)

val add_ge : system -> int array -> int -> system
val add_eq : system -> int array -> int -> system
(** Added as two inequalities. *)

val eliminate : system -> int -> system
(** Project out one variable (Fourier-Motzkin step).
    @raise Invalid_argument on a bad index. *)

val feasible : system -> bool
(** Rational satisfiability: eliminate every variable and check the
    residual constant constraints. *)

val sample : system -> Rat.t array option
(** A rational solution, when one exists: back-substitution through
    the elimination steps. *)

val feasible_int : system -> bool
(** Integer satisfiability by branch-and-bound over the rational
    relaxation: when the sampled point has a fractional coordinate
    [x_v = q], recurse on the two half-spaces [x_v <= floor q] and
    [x_v >= ceil q].  Exact for bounded systems (e.g. loop-nest
    dependence systems); at most 2000 branchings are explored,
    returning the sound over-approximation [true] when exhausted. *)
