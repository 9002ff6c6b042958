(** The one shape of per-domain observability state.

    {!Obs}, {!Telemetry}, {!Profile} and [Cache] each keep state in
    [Domain.DLS], and each exports one value of this type.  The
    parallel runtime ([Par]) keeps them in a single list: it runs every
    worker slot inside each sink's [capture] and, after the join, calls
    the returned merges in slot order on the calling domain. *)

type t = {
  name : string;
      (** Names the merge in profiles: its lifecycle event is
          ["merge." ^ name]. *)
  capture : 'a. worker:int -> (unit -> 'a) -> 'a * (unit -> unit);
      (** [capture ~worker f] runs [f ()] against fresh per-domain state
          for worker slot [worker] and restores the previous state
          afterwards, also when [f] raises.  The returned thunk folds
          what [f] recorded into the state of the domain that calls
          it.  When the sink is disabled, [capture] is [f ()] and the
          thunk does nothing. *)
}

val with_dls : 'b Domain.DLS.key -> 'b -> (unit -> 'a) -> 'a
(** [with_dls key v f] runs [f ()] with the current domain's [key] slot
    set to [v], then restores the previous value, also when [f]
    raises.  The building block of most [capture]s. *)
