(** Decomposition into elementary matrices in any dimension.

    The paper details the 2x2 case and notes that "the ideas can be
    obviously extended to higher dimensions" (§4.1): machines like the
    Cray T3D expose a 3-D grid.  This module factors any [n x n]
    determinant-1 integer matrix into {e transvections} — the
    n-dimensional elementary matrices [Id + k E_ij] whose
    communications are parallel to axis [i].

    The algorithm is integer Gaussian elimination by transvections:
    Euclid down each column, then clearing the upper triangle.  A
    [-1, -1] diagonal pair is repaired with the six-transvection
    identity [(-Id_2) = (U(-1) L(1) U(-1))^2] embedded in the
    corresponding plane, so the factorization always exists (SL_n(Z)
    is generated by transvections). *)

open Linalg

val decompose : Mat.t -> Mat.t list
(** Factors multiply, left to right, to the input; each satisfies
    {!Elementary.is_elementary}.  An empty list is returned for the
    identity.
    @raise Invalid_argument unless the input is square with
    determinant 1. *)
