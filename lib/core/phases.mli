(** Communication phases: what runs before the loops and what runs
    inside them.

    Message vectorization (§3.5) lets an access whose data does not
    depend on the timestep hoist its communication out of the time
    loop: one large message instead of one per timestep.  This module
    splits a plan accordingly. *)

type t = {
  hoisted : Commplan.entry list;  (** vectorizable: sent once, up front *)
  per_timestep : Commplan.entry list;  (** re-sent every timestep *)
  local : Commplan.entry list;  (** no communication at all *)
}

val of_result : Pipeline.result -> t
