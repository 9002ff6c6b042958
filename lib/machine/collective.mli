(** Software macro-communications on a mesh: binomial trees.

    When the machine has no hardware collective network, a broadcast
    (reduction, scatter) is implemented as [ceil(log2 P)]
    rounds of point-to-point messages whose reach doubles each round.
    Used as the software baseline against the CM-5-style hardware
    collectives of {!Models}. *)

val broadcast : Topology.t -> Netsim.params -> bytes:int -> float
(** Tree broadcast of one item of [bytes] to the whole machine. *)

val reduce : Topology.t -> Netsim.params -> bytes:int -> float
(** Tree combine towards a root: same round structure. *)

val scatter : Topology.t -> Netsim.params -> bytes:int -> float
(** Root sends a distinct [bytes]-sized item to every processor;
    implemented as a splitting tree: round [r] forwards half the
    remaining payload. *)

val partial_broadcast :
  Topology.t -> Netsim.params -> axis:int -> bytes:int -> float
(** Broadcast along a single axis of the grid (each row/column root
    broadcasts within its line, all lines in parallel). *)
