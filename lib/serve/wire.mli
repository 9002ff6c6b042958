(** Request / response payloads of the [resopt serve] protocol.

    Both directions are plain text inside a {!Frame}: a request is a
    version sentinel line followed by [key=value] lines in a {e fixed}
    field order, so equal requests encode to equal bytes — the server
    coalesces in-flight solves by comparing {!work_key} strings,
    nothing cleverer.  Requests are normalised on construction and on
    decode by one rule: {e a field the answer does not read does not
    enter the key}.  A response is a status line ([ok],
    [shed], [timeout] or [error]) followed by the body: for [ok] the
    body is {e exactly} what the offline CLI would have printed, so
    clients verify correctness with a byte comparison. *)

(** Where a service listens — shared vocabulary of server, client and
    the CLI flags. *)
type addr = Unix_sock of string | Tcp of string * int

val addr_to_string : addr -> string
(** ["unix:PATH"] or ["tcp:HOST:PORT"]. *)

type op = Run | Ping | Stats

type request = {
  op : op;
  workload : string;  (** workload name; [""] for [Ping] / [Stats] *)
  m : int;  (** virtual grid dimension (default 2, like the CLI) *)
  faults : string option;  (** fault spec in {!Machine.Fault.parse} grammar *)
  fseed : int;  (** fault schedule seed *)
  map : string option;  (** mapping kind: [greedy] or [search] *)
  mseed : int;  (** mapping search seed; [0] unless [map] is [search] *)
  deadline_ms : int option;
      (** per-request deadline; overrides the server default.  [Some 0]
          expires immediately (useful to exercise the timeout path). *)
}

val run : ?m:int -> ?faults:string -> ?fseed:int -> ?map:string -> ?mseed:int ->
  string -> request
(** [run workload] with the same defaults as [resopt-cli run].  [map]
    ["none"] is the same request as no [map] (its [mseed] dropped), and
    [mseed] is zeroed for every kind but [search] — the only placement
    that reads a seed — so requests with one answer coalesce. *)

val ping : request
val stats : request

val encode_request : request -> string

val decode_request : string -> (request, string) result
(** Strict inverse of {!encode_request} (unknown keys, bad integers,
    [m < 1], a missing workload on [Run], or a foreign version line
    are [Error]).  The result is normalised as in {!run}, whatever
    [mseed] the client sent.  Never raises. *)

val solve_key : request -> string
(** The canonical identity of the {e answer} a request asks for — its
    encoding with the deadline erased, since two clients with
    different patience still want the same bytes.  Two requests get
    the same answer bytes exactly when their keys are equal, so
    byte-comparing oracles key by it. *)

val work_key : request -> string
(** The identity of the {e computation} behind the answer: {!solve_key}
    with [fseed] zeroed.  The fault seed is printed into the answer
    ({!Answer.stamp}) but read by none of its prices, so requests that
    differ only in [fseed] share one solve.  The server coalesces and
    memoizes by this key.  [fseed] itself is {e not} zeroed in the
    request ({!run} and {!decode_request} keep it), because the answer
    prints it. *)

type response =
  | Answer of string  (** the bytes the offline CLI would print *)
  | Shed of string  (** admission control refused: queue full *)
  | Timeout of string  (** the deadline expired before the solve *)
  | Failed of string  (** malformed request or solve error *)

val encode_response : response -> string
val decode_response : string -> (response, string) result

val status : response -> string
(** ["ok"], ["shed"], ["timeout"] or ["error"]. *)
