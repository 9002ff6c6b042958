(** ASCII rendering of traffic for reports and benchmarks. *)

val load_heatmap : Topology.t -> Message.traffic -> string
(** Per-node total outgoing bytes of the remote messages, rendered
    as a grid (2-D topologies; higher dimensions are flattened plane
    by plane) with a 0-9 density scale. *)

val link_table : Topology.t -> Message.traffic -> string
(** The directed links some route crosses, one per line with its
    effective load ({!Netsim.link_loads}: bytes divided by the link's
    capacity, rounded up, so a fat-tree uplink shows fewer units than
    the bytes it carries), heaviest first. *)
