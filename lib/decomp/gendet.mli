(** Decomposition of data-flow matrices with arbitrary non-zero
    determinant (paper §5.5).

    Generalizing elementary matrices to {e unirow} matrices (identity
    except for one row, whose diagonal entry carries a factor of the
    determinant), every non-singular integer matrix factors as a
    product of unirow matrices: the Euclidean phase reduces the matrix
    to upper-triangular form with determinant-1 elementary operations,
    and the triangle splits into one unirow matrix per row.  Each
    factor still generates communication parallel to a single axis, so
    the grouped partition applies. *)

open Linalg

val decompose : Mat.t -> Mat.t list
(** Factors multiply (left to right) to the input.  All factors satisfy
    {!Elementary.is_unirow}.
    @raise Invalid_argument on singular or non-square input. *)
