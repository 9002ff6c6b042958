(** A point-to-point message between physical ranks.

    The unit of traffic every simulator consumes, as a {!traffic}
    stream made into a {!Netsim.volume}: {!Netsim} prices it
    closed-form, {!Eventsim} routes it packet by packet. *)

type t = { src : int; dst : int; bytes : int }

val make : src:int -> dst:int -> bytes:int -> t
(** @raise Invalid_argument when [bytes] is negative. *)

type traffic = (int -> int -> int -> unit) -> unit
(** Messages as a replayable stream: [traffic emit] calls
    [emit src dst bytes] once per message, in order, and running it
    again replays the same messages.  Residual traffic takes this form
    from placement to price — a cell→rank lookup and an affine step
    per message, no record and no array per message. *)

val of_list : t list -> traffic
(** The one adapter from a batch of messages built as a list
    ([Redistribute], [Progtime]) to
    the stream the simulators read. *)
