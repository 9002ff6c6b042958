(** Smith normal form over the integers.

    [u * a * v = s] with [u], [v] unimodular and [s] diagonal with
    non-negative invariant factors [s_1 | s_2 | ...].  Used to decide
    whether integer one-sided inverses exist (all invariant factors
    equal to 1) and to analyse lattice questions in the decomposition
    machinery. *)

type result = { s : Mat.t; u : Mat.t; v : Mat.t }

val decompose : Mat.t -> result
