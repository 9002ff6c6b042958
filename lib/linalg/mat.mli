(** Dense integer matrices.

    The workhorse representation for access matrices, allocation
    matrices and data-flow matrices.  Matrices are immutable: every
    operation returns a fresh value.  Dimensions are explicit and all
    binary operations check them. *)

type t

val rows : t -> int
val cols : t -> int

val make : int -> int -> (int -> int -> int) -> t
(** [make r c f] is the [r]x[c] matrix whose [(i,j)] entry is [f i j]. *)

val of_lists : int list list -> t
(** [of_lists rows] builds a matrix from its rows.
    @raise Invalid_argument on ragged or empty input. *)

val of_arrays : int array array -> t
val to_arrays : t -> int array array

val get : t -> int -> int -> int

val identity : int -> t
val zero : int -> int -> t

val is_square : t -> bool
val is_identity : t -> bool
val is_zero : t -> bool

val equal : t -> t -> bool

val transpose : t -> t
val neg : t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val row : t -> int -> int array
val col : t -> int -> int array

val of_col : int array -> t
(** An nx1 matrix. *)

val mul_vec : t -> int array -> int array
(** [mul_vec a v] is the matrix-vector product [a * v]. *)

val hcat : t -> t -> t
(** Horizontal concatenation [A | B]. *)

val vcat : t -> t -> t
(** Vertical concatenation. *)

val sub_matrix : t -> row:int -> col:int -> rows:int -> cols:int -> t

val swap_rows : t -> int -> int -> t

val det : t -> int
(** Exact determinant via fraction-free Bareiss elimination.
    @raise Invalid_argument on non-square input. *)

val rank : t -> int
(** Rank over the rationals, by fraction-free (Bareiss) elimination
    with row and column pivoting — exact integer arithmetic, any
    shape.  [rank (sub f (identity n))] classifies an affine data
    flow: 0 = identity (fully local), [n] = full mix. *)

val trace : t -> int
(** @raise Invalid_argument on non-square input. *)

val adjugate : t -> t
(** The transposed cofactor matrix: [a * adjugate a = det a * Id],
    entirely over the integers.
    @raise Invalid_argument on non-square input. *)

val pp_flat : Format.formatter -> t -> unit
(** One-line rendering [[a b; c d]], convenient in reports. *)
