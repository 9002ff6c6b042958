(** Seeded load generation against a running [resopt serve].

    {!mix} derives a deterministic request stream from a seed —
    workload, grid dimension, occasional fault and mapping fields all
    drawn through {!Machine.Backoff.hash_unit}, so a seed names a
    workload mix exactly, across processes.  {!run} replays a mix from
    [clients] concurrent connections at a target aggregate QPS through
    {!Client.call} (so shed / timeout retries follow the capped
    jittered backoff) and reports client-observed percentile
    latencies.

    With [verify], every [ok] body is byte-compared against
    {!Answer.of_request} computed locally — the end-to-end correctness
    oracle the CI soak gate runs. *)

type summary = {
  sent : int;
  ok : int;
  shed : int;  (** [shed] still standing after the retry budget *)
  timeout : int;  (** same, for [timeout] *)
  errors : int;  (** transport errors and [error] responses *)
  mismatches : int;  (** verified bodies that differed *)
  mismatched : string list;  (** solve keys of the first few mismatches *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;  (** client-observed latency, retries included *)
  wall_s : float;
  achieved_qps : float;
}

val mix : seed:int -> ?deadline_ms:int -> n:int -> unit -> Wire.request list
(** [n] run-requests over the built-in workloads: [m] in 1–3, ~30%
    with a fault model, ~20% with a greedy mapping. *)

val run :
  addr:Wire.addr ->
  clients:int ->
  ?qps:float ->
  ?verify:bool ->
  requests:Wire.request list ->
  seed:int ->
  unit ->
  summary
(** Replay [requests] round-robin over [clients] threads.  [qps <= 0]
    (the default) paces nothing.  [verify] (default false) pre-solves
    every distinct key locally, then byte-compares.  Each request gets
    {!Client.call}'s retry budget.  [seed] differentiates the per-client backoff jitter streams. *)

val pp : Format.formatter -> summary -> unit

val summary_json : summary -> string
(** The latency/outcome report the CI gate uploads as an artifact. *)
