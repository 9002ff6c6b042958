(** The service's answer for a [run] request — {e the same bytes} the
    offline [resopt-cli run] command prints.

    This module is the byte-identity contract of the service: the CLI's
    [run] command (without [--baseline]) prints exactly {!render}, and
    the server returns exactly {!render}, so a client can verify a
    served answer by diffing it against a local CLI invocation.  The
    rendering goes through a buffer formatter with the default margin —
    the same one [Format.printf] uses — so the two paths cannot
    drift. *)

val render :
  ?faults:Machine.Fault.t ->
  ?mapping:Mapping.spec ->
  ?topo:Machine.Topology.t ->
  m:int ->
  Resopt.Workloads.t ->
  string
(** Optimize the workload on an [m]-dimensional grid and render the
    mapping report, followed by the process-mapping block when
    [mapping] is given and the resilience block when [faults] is.
    [topo] replaces the three historical machine models with the one
    requested topology ({!Machine.Models.of_topo}) in both blocks;
    omitted, the output is byte-identical to what it always was. *)

(** {1 Solving once, stamping per request}

    A fault seed decides only the drop schedule of a simulated run,
    which an answer never replays: no price in the report reads it.
    The one place an answer shows the seed is the [(seed N)] of the
    resilience header ({!Machine.Fault.pp}).  So a request is solved
    once for every seed ({!solve}) and each request's own seed is
    printed into that solve afterwards ({!stamp}); [of_request] is
    exactly [stamp ∘ solve]. *)

(** A rendered answer, cut where the seed is printed. *)
type solved =
  | Unseeded of string
      (** the whole answer: it prints no seed (no [faults], or a spec
          that parses to no fault at all — [<no faults>]) *)
  | Seeded of { head : string; specs : Machine.Fault.spec list; tail : string }
      (** the answer is [head], then {!Machine.Fault.pp} of [specs]
          under the request's seed, then [tail] *)

val solve : Wire.request -> (solved, string) result
(** Render a request without reading its [fseed]: what every request
    that differs from it only in [fseed] shares.  [Error] (a one-line
    message) on an unknown workload, bad fault spec or bad mapping
    kind.  Only [Run] requests reach this; never raises. *)

val stamp : Wire.request -> solved -> string
(** Print the request's [fseed] into a solve: [stamp r s] is
    {!render} of [r] with [Machine.Fault.make ~seed:r.fseed] whenever
    [s] is [solve r'] for any [r'] equal to [r] up to [fseed].  An
    [Unseeded] solve stamps to its own text.  Pure: safe on any
    thread. *)

val of_request : Wire.request -> (string, string) result
(** {!render} driven by a wire request — [stamp r] of [solve r]. *)
