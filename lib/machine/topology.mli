(** Pluggable network topologies.

    The paper's target machines are grids — the Intel Paragon is a 2-D
    mesh, the Cray T3D a 3-D torus — and those keep their closed forms
    bit-for-bit.  Two switched networks join them behind the same
    interface: a fat tree (the CM-5 stand-in, now a real routed
    multi-stage network with link capacity growing toward the root)
    and a dragonfly (groups of fully connected routers joined by fat
    global links) with minimal or seeded Valiant-style adaptive
    routing.

    Every topology exposes the same contract: [size] hosts ranked
    [0 .. size-1], [nodes >= size] graph vertices (hosts plus
    switches), [links] with per-link capacity, a deterministic [route]
    between hosts, [route_avoiding] (breadth-first detour over
    surviving links, shared by every shape), [distance], a [diameter]
    / [route_bound] pair, and a collective-capability hint.

    So the rest of the system keeps working unchanged, every topology
    also presents a {e host grid}: [ndims]/[dim]/[rank_of]/[coords_of]
    describe the real grid for meshes and tori, and a near-square 2-D
    factorization of the host count for fat trees and dragonflies.
    Layout placement, virtual-grid folding and the pattern generators
    consume that view and never see switches. *)

type t

type routing =
  | Minimal  (** shortest path, deterministic gateway choice *)
  | Valiant of int
      (** Valiant-style adaptive: detour via an intermediate group
          chosen by a pure hash of [(seed, src, dst)] — load-spreading
          yet bit-reproducible. *)

type capability = {
  hw_collectives : bool;
      (** a dedicated control network accelerates collectives (the
          CM-5's, modelled by fat trees) *)
  adaptive_routing : bool;  (** routes spread load non-minimally *)
}

(** {1 Constructors} *)

val make : ?torus:bool -> int array -> t
(** Grid of the given dimensions.  @raise Invalid_argument on empty or
    non-positive dimensions.  [torus] (default false) adds wrap-around
    links in every dimension. *)

val mesh2d : p:int -> q:int -> t
val torus3d : p:int -> q:int -> r:int -> t

val fat_tree : levels:int -> arity:int -> t
(** [levels] tiers of switches over [arity^levels] hosts; each switch
    multiplexes [arity] children and the link from a level-[l] switch
    upward carries capacity [arity^l].  @raise Invalid_argument on
    [levels < 1] or [arity < 2]. *)

val dragonfly :
  ?routing:routing -> groups:int -> routers:int -> hosts:int -> unit -> t
(** [groups] groups of [routers] fully connected routers, [hosts]
    hosts per router; every group pair shares one global link of
    capacity [hosts].  [routing] defaults to {!Minimal}.
    @raise Invalid_argument on non-positive parameters. *)

(** {1 Inspection} *)

val is_grid : t -> bool
val is_torus : t -> bool
(** [false] for non-grids. *)

val capability : t -> capability

val size : t -> int
(** Number of hosts (message endpoints). *)

val nodes : t -> int
(** Number of graph vertices: hosts plus switches.  Equal to {!size}
    on grids; routes may traverse vertices in
    [size t .. nodes t - 1]. *)

(** {1 Host-grid view}

    Real coordinates for grids; a near-square 2-D factorization of the
    host count for switched topologies.  Ranks are row-major. *)

val ndims : t -> int
val dim : t -> int -> int
val dims : t -> int array
(** A copy of the host-grid dimensions. *)

val rank_of : t -> int array -> int
val coords_of : t -> int -> int array

(** {1 Links and routing} *)

val links : t -> ((int * int) * int) list
(** Every undirected link once as [((u, v), capacity)] with [u < v],
    sorted; routes traverse links in either direction. *)

val link_capacity : t -> int * int -> int
(** Capacity of a link in either orientation (1 for every grid link);
    1 for pairs that are not links. *)

val route : t -> src:int -> dst:int -> (int * int) list
(** Unit hops as [(from, to)] pairs; empty when [src = dst].
    Dimension-order on grids (the Paragon's discipline), up/down
    through the least common ancestor on fat trees, minimal or
    Valiant on dragonflies. *)

val route_avoiding :
  down:(int * int -> bool) -> t -> src:int -> dst:int -> (int * int) list option
(** The plain {!route} when none of its hops satisfies [down],
    otherwise a deterministic breadth-first shortest path over the
    surviving links (fixed tie-breaking, so the same fault set always
    yields the same detour).  [None] when every route crosses a down
    link. *)

val distance : t -> src:int -> dst:int -> int
(** Hop count of the {e minimal} route (closed form): Manhattan on
    grids, [2 * lca_level] on fat trees, at most 5 on dragonflies —
    independent of the routing mode, so placement search optimizes
    the same metric adaptive routing is spreading. *)

val diameter : t -> int
(** Longest minimal route between any two hosts. *)

(** {1 Spec grammar}

    [mesh:4x8], [torus:8x8x2], [fattree:LEVELS:ARITY],
    [dragonfly:GROUPS:ROUTERS:HOSTS\[:adaptive\[:SEED\]\]] — the
    [--topo] flag's language.  [to_string] and [of_string] round-trip. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** [Error] carries a human-readable message naming the offending
    spec. *)
