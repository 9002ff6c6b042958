(** Affine index maps [I -> F.I + c].

    Every array reference in an affine loop nest is described by such a
    map from the iteration vector of the surrounding statement to the
    index space of the array. *)

open Linalg

type t = { f : Mat.t; c : int array }

val make : Mat.t -> int array -> t
(** @raise Invalid_argument when [c] does not match the row count of
    [f]. *)

val of_lists : int list list -> int list -> t

val linear : Mat.t -> t
(** Affine map with a zero constant part. *)

val identity : int -> t

val dim_in : t -> int
(** Dimension of the iteration space (columns of [f]). *)

val dim_out : t -> int
(** Dimension of the array index space (rows of [f]). *)

val apply : t -> int array -> int array

val rank : t -> int

val is_full_rank : t -> bool
(** Rank equal to [min dim_in dim_out]. *)

val is_translation : t -> bool
(** [f] is the identity: the access is a pure shift. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
