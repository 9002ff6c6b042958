(** One-sided pseudo-inverses (paper, Appendix A.2).

    For a full-column-rank integer matrix [x] of size [u x v]
    ([u >= v]), the left inverse [x+ = (xt x)^-1 xt] satisfies
    [x+ * x = Id_v]; a square non-singular [x] takes the ordinary
    inverse.

    The paper's access graph is free to use {e any} integer matrix [g]
    with [g * f = Id] in place of the true left pseudo-inverse (§2.2
    remark); {!integer_left_inverse} produces such a matrix via the
    Smith form whenever one exists. *)

val left_inverse : Mat.t -> Ratmat.t option
(** Rational left inverse of a narrow (or square) full-column-rank
    matrix.  [None] when the matrix does not have full column rank. *)

val integer_left_inverse : Mat.t -> Mat.t option
(** An integer matrix [g] with [g * f = Id], when one exists (iff [f]
    has full column rank and all invariant factors equal 1). *)
