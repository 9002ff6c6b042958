(** The one JSON writer every exporter in [lib/obs] shares.

    Dependency-free and at the bottom of the library, so {!Telemetry},
    {!Profile}, {!Benchstore} and {!Obs} itself all write strings and
    floats the same way.  Reading JSON stays in {!Benchstore}, its only
    caller. *)

val escape : string -> string
(** The body of a JSON string literal: the double quote and the
    backslash get a backslash in front, newline, carriage return and
    tab become [\n], [\r] and [\t], and every other control character
    below 0x20 becomes [\u00XX].  All other bytes, ['<'] included, pass
    through unchanged. *)

val str : string -> string
(** [str s] is [escape s] between double quotes. *)

val float : float -> string
(** Three decimals ([%.3f]); [inf] and [nan], which are not JSON,
    print as [0.000]. *)

val obj : (string * string) list -> string
(** [obj [(k, v); ...]] is [{"k":v,...}]: keys are quoted with {!str},
    values are already-rendered JSON and are inserted verbatim. *)
