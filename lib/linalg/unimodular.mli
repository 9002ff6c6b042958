(** Unimodular matrices (integer, determinant +-1).

    Alignment matrices inside a connected component of the access graph
    are determined up to left-multiplication by a unimodular matrix
    (paper, §2.3 remark); this module provides the tests, inverses and
    generators used when searching for a better representative. *)

val is_unimodular : Mat.t -> bool

val inverse : Mat.t -> Mat.t
(** Exact integer inverse.
    @raise Invalid_argument if the matrix is not unimodular. *)

val random : dim:int -> ops:int -> Random.State.t -> Mat.t
(** A random unimodular matrix obtained as a product of [ops]
    elementary operations (transvections with small coefficients, swaps
    and sign flips) applied to the identity. *)

val enumerate_2x2 : bound:int -> Mat.t list
(** All 2x2 unimodular matrices with entries in [[-bound, bound]]. *)
