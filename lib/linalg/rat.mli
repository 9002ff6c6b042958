(** Exact rational arithmetic on machine integers.

    Values are kept normalized: the denominator is positive and the
    numerator and denominator are coprime.  All matrices manipulated in
    this project are tiny (entries well below 10^6), so machine [int]
    rationals are exact in the regime we operate in. *)

type t = private { num : int; den : int }

val of_int : int -> t

val zero : t
val one : t

val den : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val neg : t -> t

val inv : t -> t
(** @raise Division_by_zero on [inv zero]. *)

val is_zero : t -> bool

val is_integer : t -> bool

val to_int : t -> int
(** @raise Invalid_argument if the value is not an integer. *)

val pp : Format.formatter -> t -> unit
