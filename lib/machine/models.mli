(** Machine models (the paper's CM-5 and Intel Paragon, simulated).

    The real machines are extinct; these models preserve the two
    phenomena the paper measures (see DESIGN.md, substitutions):
    - the CM-5's control network executes broadcasts and reductions in
      hardware, an order of magnitude faster than general affine
      communications through the data network (Table 1);
    - the Paragon's 2-D mesh serializes conflicting messages on shared
      links, which communication decomposition avoids (Table 2). *)

type hw_collective = { coll_alpha : float; coll_beta : float }

type t = {
  name : string;
  topo : Topology.t;
  net : Netsim.params;
  hw : hw_collective option;
}

val cm5 : unit -> t
(** 32 processors as an 8x4 mesh; hardware collectives enabled. *)

val paragon : ?p:int -> ?q:int -> unit -> t
(** An 8x4 mesh by default; software collectives only. *)

val t3d : unit -> t
(** A Cray T3D stand-in: a 4x4x2 3-D torus, fast links, software
    collectives. *)

val of_topo : Topology.t -> t
(** The model behind the [--topo] flag: the given topology under
    Paragon-flavoured wire parameters, named by its spec string.
    Consumes the topology's {!Topology.capability} hint — hardware
    collectives (the fat tree's control network) price like the
    CM-5's. *)

val of_calibration :
  name:string -> Topology.t -> Eventsim.params -> t
(** Build a closed-form model whose [alpha]/[beta] are fitted from
    event-simulated ping-pongs on the given machine (LogP style,
    {!Calibrate}); the hop cost comes from the wormhole pipeline
    rate. *)

val broadcast_time : t -> bytes:int -> float
val reduce_time : t -> bytes:int -> float
val scatter_time : t -> bytes:int -> float
val gather_time : t -> bytes:int -> float

val translation_time : t -> bytes:int -> float
(** Uniform shift by one grid step: conflict-free by construction.
    The shift depends on the topology and the wire parameters only, so
    {!Netsim} prices it once per process for each (topology spec, wire
    parameters, [bytes]); every later call, from any domain, reads that
    price.  Only the first call records [netsim.*] counters. *)

val general_time : t -> bytes:int -> float
(** A representative general affine communication: the transpose
    pattern [p -> reversal(p)], which concentrates traffic on the
    bisection. *)

val price : ?coalesce:bool -> ?faults:Fault.t -> t -> Message.traffic -> Netsim.stats
(** {!Netsim.price} of the batch's {!Netsim.volume} on the model. *)
