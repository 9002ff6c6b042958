(** Rational vector subspaces of Q^n, represented by integer spanning
    sets.

    The macro-communication conditions of the paper are all statements
    about kernels and their intersections ([ker theta ∩ ker F \ ker M]
    and friends); this module gives those set operations a first-class
    home. *)

type t

val kernel : Mat.t -> t
(** Right null space of a matrix. *)

val basis : t -> Mat.t list
(** A basis as primitive integer column vectors. *)

val intersect : t -> t -> t
