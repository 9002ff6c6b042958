(** Dense rational matrices.

    Used wherever exact division is needed: rank computation, matrix
    inversion, kernels, pseudo-inverses and the compatibility analysis
    of the matrix equation [X.F = S]. *)

type t

val rows : t -> int
val cols : t -> int

val make : int -> int -> (int -> int -> Rat.t) -> t
val of_mat : Mat.t -> t
val get : t -> int -> int -> Rat.t

val identity : int -> t

val is_zero : t -> bool

val to_mat : t -> Mat.t option
(** [Some m] iff every entry is an integer. *)

val to_mat_exn : t -> Mat.t

val transpose : t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : Rat.t -> t -> t

val rank : t -> int

val rank_of_mat : Mat.t -> int
(** Rank of an integer matrix (computed exactly over the rationals). *)

val inverse : t -> t option
(** [None] when the matrix is singular or non-square. *)

val inverse_mat : Mat.t -> t option

val kernel : t -> Mat.t list
(** A basis of the right null space [{v | A v = 0}], scaled to integer
    column vectors with coprime entries.  Empty list for a trivial
    kernel. *)

val kernel_of_mat : Mat.t -> Mat.t list

val rref : t -> t * int list
(** Reduced row echelon form together with the pivot column indices. *)

val pp : Format.formatter -> t -> unit
