(** A small textual format for affine loop nests.

    {[
      nest example
      array a 2
      array b 3
      stmt S1 depth 2 extent 8 8
        write b F1 [1 0; 0 1; 0 0] + (0 0 1)
        read  a F2 [1 1; 0 1]
    ]}

    One declaration per line; [#] starts a comment.  The access label
    ([F1]) is optional, as is the constant part ([+ (..)], default
    zero).  {!print_with_schedule} emits this format and {!parse} reads
    it back (round-trip up to whitespace). *)

val parse : string -> (Loopnest.t, string) result
(** The error string carries the offending line number. *)

val parse_with_schedule : string -> (Loopnest.t * Schedule.t option, string) result
(** Like {!parse}, also reading optional [schedule <stmt> [h1 h2 ..]]
    lines (one row vector per statement; statements without a line get
    the zero row).  [None] when the text declares no schedule at
    all. *)

val parse_exn : string -> Loopnest.t
(** @raise Invalid_argument on syntax errors. *)

val print_with_schedule : Loopnest.t -> Schedule.t option -> string
(** The nest, then one [schedule] line per statement when a schedule
    is given: {!parse_with_schedule} reads back the nest and an equal
    schedule. *)
