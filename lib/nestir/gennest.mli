(** Random affine loop nests, for fuzzing the whole optimizer.

    Generates structurally valid nests — arrays of mixed dimensions,
    non-perfect statement depths, full-rank and rank-deficient
    accesses, offsets — from a seed.  The end-to-end property checked
    by the test-suite: whatever the optimizer answers on a generated
    nest must pass the brute-force {!Resopt.Validate} oracle and the
    {!Resopt.Distexec} execution check. *)

val generate_many : seed:int -> count:int -> Loopnest.t list
(** Deterministic in [seed]: nest [i] depends on [seed + i] alone. *)
