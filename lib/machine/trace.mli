(** ASCII rendering of traffic for reports and benchmarks. *)

val load_heatmap : Topology.t -> Message.traffic -> string
(** Per-node total outgoing bytes of the remote messages, rendered
    as a grid (2-D topologies; higher dimensions are flattened plane
    by plane) with a 0-9 density scale. *)
