(** Elementary data-flow matrices (paper §4.1).

    An elementary matrix is the identity with one modified row: the
    communication it generates only changes one coordinate of the
    virtual processor, i.e. it is parallel to one axis of the grid.
    In 2-D, [l l2] is a {e horizontal} communication
    [[[1,0],[l,1]]] and [u2 k] a {e vertical} one [[[1,k],[0,1]]]. *)

open Linalg

val l2 : int -> Mat.t
(** [[[1, 0], [l, 1]]]. *)

val u2 : int -> Mat.t
(** [[[1, k], [0, 1]]]. *)

val is_elementary : Mat.t -> bool
(** Identity except for (at most) one row whose diagonal entry is 1. *)

val axis_of : Mat.t -> int option
(** The axis of an elementary matrix; [None] for the identity or
    non-elementary matrices. *)

val is_unirow : Mat.t -> bool
(** Identity except for one row (any non-zero diagonal entry there). *)

val product : Mat.t list -> Mat.t
(** Left-to-right product; @raise Invalid_argument on empty list. *)
