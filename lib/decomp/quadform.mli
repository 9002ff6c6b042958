(** Binary quadratic forms and class numbers (paper §4.2.2).

    Latimer-MacDuffee: the similarity classes of integer matrices with
    irreducible characteristic polynomial [X^2 - tr X + 1] are in
    bijection with the ideal classes of [Z[x]/(P)], themselves counted
    by the equivalence classes of binary quadratic forms of
    discriminant [D = tr^2 - 4].  When that count exceeds the number
    of classes containing an [L U] product, matrices exist that are
    {e not} similar to a two-factor decomposition — the paper's
    negative result.

    This module implements the classical reduction theory of
    {e indefinite} forms ([D > 0], non-square): the rho operator, the
    cycles of reduced forms, and the (narrow) form class number. *)

type t = { a : int; b : int; c : int }
(** The form [a x^2 + b xy + c y^2]. *)

val discriminant : t -> int
(** [b^2 - 4 a c]. *)

val of_matrix : Linalg.Mat.t -> t
(** The fixed form of a 2x2 det-1 matrix [[p,q],[r,s]]: the quadratic
    form [r x^2 + (s - p) xy - q y^2] whose roots are the fixed points
    of the associated Moebius map; its discriminant is [tr^2 - 4]. *)

val is_reduced : t -> bool
(** Reduced indefinite form: [0 < b < sqrt D] and
    [sqrt D - b < 2|a| < sqrt D + b].
    @raise Invalid_argument unless [D] is positive and non-square. *)

val rho : t -> t
(** One reduction step (preserves the equivalence class and [D]). *)

val reduce : t -> t
(** Iterate {!rho} to a reduced form. *)

val cycle : t -> t list
(** The cycle of reduced forms equivalent to [t]. *)

val class_number : int -> int
(** Number of rho-cycles among the reduced forms: the narrow form
    class number [h+(D)].
    @raise Invalid_argument unless [D > 0], non-square, and
    [D = 0 or 1 (mod 4)]. *)

val equivalent : t -> t -> bool
(** Same cycle (proper equivalence). *)

val pp : Format.formatter -> t -> unit
