(** Length-prefixed framing for the [resopt serve] protocol.

    A frame is a 4-byte big-endian payload length followed by that
    many payload bytes.  Nothing else: requests and responses
    ({!Wire}) are carried as opaque payloads, so the framing layer
    can be property-tested in isolation — {!decode} [(]{!encode}
    [s ^ rest) = Ok (s, rest)] for every string [s].

    Malformed input {e always} comes back as a structured {!error},
    never as an exception: a truncated length or payload is
    {!Truncated}, a length beyond {!max_payload} (which is what
    garbage bytes in the length slot almost surely claim) is
    {!Oversized}.  The server's accept loop relies on this to survive
    arbitrary bytes on the socket. *)

val max_payload : int
(** Upper bound on a payload (4 MiB) — far above any optimizer
    answer, far below a length forged from garbage. *)

type error =
  | Truncated of { wanted : int; got : int }
      (** The stream ended [wanted - got] bytes early (header or
          payload). *)
  | Oversized of { length : int; limit : int }
      (** The header claims [length] bytes, more than [limit]. *)

val error_to_string : error -> string

val encode : string -> string
(** Frame a payload.  @raise Invalid_argument beyond {!max_payload}. *)

val decode : string -> (string * string, error) result
(** [decode buf] splits one leading frame off [buf]: [Ok (payload,
    rest)] or a structured {!error}.  Never raises. *)

(** {1 Sockets}

    Blocking helpers over file descriptors, used by both ends. *)

val write_fd : Unix.file_descr -> string -> unit
(** Frame and send a payload.  An interrupted write ([EINTR]) is
    resumed; other Unix errors propagate ([EPIPE] on a closed peer —
    callers treat it as disconnection). *)

val read_fd : Unix.file_descr -> (string, [ `Eof | `Error of error ]) result
(** Read one frame.  [`Eof] on a cleanly closed stream (no bytes at
    all); mid-frame EOF is [`Error (Truncated _)]; an interrupted read
    ([EINTR]) is resumed; a socket receive timeout surfaces as the
    [Unix.Unix_error] it is. *)
