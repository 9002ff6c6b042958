(** HPF DISTRIBUTE directive syntax for layouts.

    [(BLOCK, CYCLIC(4))] and friends; the grouped partition is printed
    as the extension keyword [GROUPED(k)]. *)

val print : Layout.t -> string
