(** HPF DISTRIBUTE directive syntax for layouts.

    [(BLOCK, CYCLIC(4))] and friends; the grouped partition is printed
    as the extension keyword [GROUPED(k)].  Round-trips with
    {!parse}. *)

val print : Layout.t -> string

val parse : string -> (Layout.t, string) result
