(** Deep network telemetry: per-message lifecycles and per-link series.

    {!Obs} records spans and scalar metrics; this module records what the
    network simulators actually {e did}: every message's lifecycle
    (inject → hop → queue-wait → retransmit/drop → deliver, plus
    unreachable verdicts from the fault model) and every directed
    link's utilization, traffic, queue occupancy and stall time.  The
    simulators assemble one {!run} value per simulation and push it
    here; the pure renderers below turn recorded runs into an ASCII
    link heatmap + percentile table ([resopt-cli report --net]) or a
    self-contained HTML dashboard (embedded JSON, inline JS, no
    external assets).

    Like {!Obs} the module is dependency-free, records into one
    process-wide, mutex-guarded store (a run recorded on any domain,
    {!Par} worker or not, is kept, in arrival order) and is off by
    default: until {!enable} is called the simulators skip every
    recording branch, so a telemetry-off run is byte-identical to a
    build without this module. *)

(** {1 Data model} *)

type outcome = Delivered | Dropped | Unreachable

type message = {
  msg_src : int;
  msg_dst : int;
  msg_bytes : int;
  injected_at : int;  (** cycle of the first injection; -1 when never injected *)
  finished_at : int;  (** delivery or permanent-drop cycle; -1 when unreachable *)
  hops : int;  (** links successfully crossed *)
  queue_wait : int;  (** cycles spent queued behind busy links *)
  retransmits : int;
  outcome : outcome;
}

type link = {
  link_src : int;
  link_dst : int;
  busy : int;  (** cycles spent transmitting *)
  carried : int;  (** bytes that crossed the link, retransmissions included *)
  packets : int;  (** completed crossings *)
  peak_queue : int;  (** deepest queue observed *)
  queue_area : int;  (** sum of sampled queue depths (occupancy integral) *)
  stalled : int;  (** cycles the link was down under the fault model *)
}

type event = { ev_cycle : int; ev_kind : string; ev_msg : int }
(** One lifecycle event ([inject], [hop], [retransmit], [drop],
    [deliver]), kept as a bounded log for the dashboard timeline. *)

type run = {
  sim : string;  (** ["eventsim"] or ["eventsim-wormhole"] *)
  label : string;
  dims : int array;  (** grid extents, ranks row-major; [[||]] otherwise *)
  torus : bool;
  topo_spec : string;
      (** the {!Machine.Topology} grammar string for switched
          topologies (fat tree, dragonfly); [""] on grids, whose
          runs render exactly as they always have *)
  total_cycles : int;  (** cycles the simulation ran *)
  fault_spec : string;  (** the {!Machine.Fault} grammar string, [""] when none *)
  messages : message list;
  links : link list;
  events : event list;
}

(** {1 Recording} *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Drop every recorded run. *)

val record_run : run -> unit
(** Push a completed run; a no-op while disabled. *)

val runs : unit -> run list
(** Recorded runs, in arrival order. *)

val last_run : unit -> run option
(** The most recently recorded run. *)

(** {1 Analysis} *)

val percentile : float array -> float -> float
(** [percentile xs p] is the nearest-rank [p]-th percentile ([p] in
    [\[0, 100]]); 0.0 on an empty array.  The input need not be
    sorted. *)

val gini : float array -> float
(** Gini coefficient of a non-negative distribution (0 = perfectly
    even, → 1 = concentrated on one element); 0.0 when empty or all
    zero.  The per-link load balance measure of the report. *)

val link_loads : run -> float array
(** The per-link load measure the report aggregates: busy cycles, or
    carried bytes for a run of 0 cycles. *)

(** {1 Rendering} *)

val heatmap : dims:int array -> torus:bool -> ((int * int) * int) list -> string
(** ASCII grid of per-link loads for a 1-D or 2-D topology: nodes are
    [+], each inter-node position shows the load decile of the hotter
    direction ([.] = idle, [1]-[9] scaled to the peak), torus wrap
    links are annotated in the right margin ([~d]) and a final [~]
    row.  Topologies of higher dimension fall back to a sorted link
    table. *)

val render_ascii : run -> string
(** The full report for one run: header, outcome tally, latency and
    queue-wait percentiles (p50/p95/p99), link-load Gini and the link
    heatmap. *)

val render_html : ?extra:string -> run list -> string
(** A single-file HTML dashboard over the given runs: the JSON payload
    is embedded in a [<script type="application/json"
    id="telemetry-data">] block (parseable on its own) and rendered by
    inline JavaScript — no external assets, openable from disk.
    [extra] is a caller-supplied HTML fragment inserted right under
    the page title (the [report --net --bounds] efficiency panel);
    omitting it produces byte-identical output to before the parameter
    existed.  Every ['<'] in the payload is written as [\u003c], so a
    label such as ["</script>"] cannot end the script block early. *)
