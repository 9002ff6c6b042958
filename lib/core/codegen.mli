(** Emitting the mapping as HPF-style directives.

    The natural output of the alignment process in 1996 was an HPF
    program: ALIGN directives place the arrays on a template according
    to the allocation matrices, ON HOME clauses place the computations,
    and the residual communications become explicit communication
    pseudo-operations (BROADCAST / REDUCE / SHIFT phases), with the
    recommended distribution for each decomposed phase. *)

val emit : Pipeline.result -> string

val align_expr : Linalg.Mat.t -> string list
(** The per-grid-dimension alignment expressions of an allocation
    matrix, e.g. [["i1+2*i2"; "i2"]]. *)

val emit_spmd : Pipeline.result -> string
(** The owner-computes SPMD skeleton on a block-distributed grid of
    extent 2 per dimension: the communication preamble (hoisted
    vectorizable transfers), then per-timestep communication calls and
    the local iteration sets each processor executes (computed from the
    layout's ownership).  Schematic pseudocode, one block per
    statement. *)
