(** Rotating a mapping so a partial macro-communication runs parallel
    to the axes of the processor space (paper §3.1, "partial broadcast
    conditions").

    Given the direction matrix [D = [M_S v_1 ... M_S v_k]] of rank
    [p >= 1], we decompose a full-column-rank column basis [D'] of [D]
    with the right Hermite form [D' = Q [H; 0]] and left-multiply every
    allocation matrix of the component by [Q^-1]: the directions then
    live in the first [p] axes of the processor space. *)

open Linalg

val aligning_matrix : Mat.t -> Mat.t option
(** A unimodular [V] such that [V D] has non-zero entries only in its
    first [rank D] rows.  [None] when [D] is the zero matrix (nothing
    to align). *)
