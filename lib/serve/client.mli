(** Client side of the [resopt serve] protocol.

    Two layers.  A {!t} is one open connection with blocking
    request/response calls — what a long-lived consumer holds.  {!call}
    is the robust one-shot: connect, ask, close, {e retrying} refused
    connections, [shed] and [timeout] responses under the capped
    jittered exponential backoff of {!Machine.Backoff} — the same math
    the event simulator's retransmission protocol uses, and
    deterministic per seed, so a load generator's retry pattern
    reproduces exactly. *)

type t
(** An open connection. *)

val connect : Wire.addr -> (t, string) result
(** One attempt; [Error] describes the refusal.  Never raises. *)

val close : t -> unit

val request : t -> Wire.request -> (Wire.response, string) result
(** One framed round trip: the request encoded on the way out, the
    response decoded on the way back.  [Error] on a closed or garbled
    stream. *)

val default_backoff : seed:int -> Machine.Backoff.t
(** Base 50 ms, cap 1000 ms, jitter 0.5. *)

val call :
  backoff:Machine.Backoff.t ->
  Wire.addr ->
  Wire.request ->
  (Wire.response, string) result
(** One request with a retry loop (5 tries total):
    a failed connect, a dropped connection, a [shed] or a [timeout]
    response sleeps [Machine.Backoff.delay ~attempt] milliseconds and
    tries again — a timed-out solve keeps running server-side and
    warms the cache, so the retry usually answers instantly.  The last
    attempt's outcome is returned as-is, so callers still see a
    structured [Shed] / [Timeout] when the server never yielded. *)
