(** ASCII rendering of traffic for reports and benchmarks. *)

val load_heatmap : Topology.t -> Message.t list -> string
(** Per-node total outgoing bytes, rendered as a grid (2-D topologies;
    higher dimensions are flattened plane by plane) with a 0-9 density
    scale. *)

val link_table : Topology.t -> Message.t list -> string
(** The directed links sorted by load, one per line. *)
