(** Length-prefixed framing for the [resopt serve] protocol.

    A frame is a 4-byte big-endian payload length followed by that
    many payload bytes.  Nothing else: requests and responses
    ({!Wire}) are carried as opaque payloads, so the framing layer
    can be property-tested in isolation — {!read_fd} after
    {!write_fd} [s] gives back [s] for every string [s].

    Malformed input {e always} comes back as a structured {!error},
    never as an exception: a truncated length or payload is
    {!Truncated}, a length beyond the 4 MiB payload limit (far above
    any optimizer answer, far below what garbage bytes in the length
    slot almost surely claim) is {!Oversized}.  The server's accept
    loop relies on this to survive arbitrary bytes on the socket. *)

type error =
  | Truncated of { wanted : int; got : int }
      (** The stream ended [wanted - got] bytes early (header or
          payload). *)
  | Oversized of { length : int; limit : int }
      (** The header claims [length] bytes, more than [limit]. *)

val error_to_string : error -> string

(** {1 Sockets}

    Blocking helpers over file descriptors, used by both ends. *)

val write_fd : Unix.file_descr -> string -> unit
(** Frame and send a payload.  An interrupted write ([EINTR]) is
    resumed; other Unix errors propagate ([EPIPE] on a closed peer —
    callers treat it as disconnection).
    @raise Invalid_argument beyond the payload limit, before writing
    anything. *)

val read_fd : Unix.file_descr -> (string, [ `Eof | `Error of error ]) result
(** Read one frame.  [`Eof] on a cleanly closed stream (no bytes at
    all); mid-frame EOF is [`Error (Truncated _)]; an interrupted read
    ([EINTR]) is resumed; a socket receive timeout surfaces as the
    [Unix.Unix_error] it is. *)
