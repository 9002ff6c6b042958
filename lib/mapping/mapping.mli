(** Topology-aware process placement (sparse quadratic assignment).

    The paper prices residual communications under a {e fixed}
    virtual-grid→physical-machine embedding; this module searches the
    embedding itself.  Given the residual communication-volume graph
    ({!Machine.Volgraph.t}: bytes per process pair) and a physical
    topology, it looks for a permutation of node placements minimizing
    {e hop-bytes}

    {[ sum over (p, q) of volume(p, q) * dist(place p, place q) ]}

    in the VieM / Schulz–Träff style: a greedy-growing construction
    (place the heaviest-communicating unplaced process on the free
    node closest to its placed partners) refined by pairwise-swap hill
    climbing with random restarts.

    Everything is deterministic: ties break on the lowest index,
    restarts draw from {!Machine.Fault.Rng} (splitmix64) streams
    derived from the caller's seed, and the cross-restart winner is
    the (cost, permutation) lexicographic minimum — so the same seed
    is byte-identical across runs. *)

type t = int array
(** A placement: process [p] lives on physical rank [t.(p)].  Always a
    permutation of [0 .. n-1] for [n] the topology size. *)

type kind = Identity | Greedy | Search

type spec = { kind : kind; seed : int }
(** What to compute: [Identity] is the paper's fixed embedding (a
    no-op placement, kept so benches can price it explicitly),
    [Greedy] the growing construction alone, [Search] greedy plus
    seeded hill climbing.  [seed] only matters for [Search]. *)

val spec : ?seed:int -> kind -> spec
(** [seed] defaults to [0].  Only [Search] keeps it: [Identity] and
    [Greedy] always get [0], so specs that compute the same placement
    are equal. *)

val kind_to_string : kind -> string
(** ["none"], ["greedy"], ["search"] — the [--map] CLI vocabulary. *)

val kind_of_string : string -> kind option
(** Inverse of {!kind_to_string} (also accepts ["identity"]). *)

val identity : int -> t

val hop_bytes : Machine.Topology.t -> Machine.Volgraph.t -> t -> int
(** The objective: summed [volume * hops] over all pairs under the
    placement.  Local volume ([p = q]) costs nothing. *)

val search : ?seed:int -> Machine.Topology.t -> Machine.Volgraph.t -> t
(** Hill climbing from the [Greedy] placement and, as 8 restarts,
    from seeded random permutations; the best local optimum wins.
    Never returns a placement costing more than [Greedy]. *)

val compute : spec -> Machine.Topology.t -> Machine.Volgraph.t -> t
(** Dispatch on [spec.kind].  [Greedy] never returns a placement
    costing more than {!identity}. *)
