(** Communication-volume graphs: bytes per ordered endpoint pair.

    This is the residual-communication summary everything downstream
    shares — a coalesced {!Netsim.volume} prices its {!tally} as one
    message per pair, and the mapping layer ([lib/mapping]) reads it
    as the volume side of the sparse quadratic-assignment objective
    [sum volume(p,q) * dist(p, q)].  Link loads are not a volume
    graph: {!Netsim} accumulates them on the dense link ids of
    {!Compiled}. *)

type t = ((int * int) * int) list
(** One entry per ordered pair that communicates; pairs are unique. *)

type 'a lender
(** Scratch buffers reused per domain.  A lender keeps one buffer per
    domain and lends it to one borrower at a time: a thread of the
    same domain that finds it lent out allocates its own.  The buffer
    goes back to the domain when the borrower returns; a borrower that
    raises keeps it, so a half-written buffer is never lent again.
    Buffers larger than the minor heap, allocated per call, fill the
    major heap faster than the collector reclaims them; the two
    tallies below, [Distrib.Foldsim.decomposed_time] and the rank
    table of [Resopt.Residual.bound_volume] borrow theirs. *)

val lender : make:(int -> 'a) -> size:('a -> int) -> 'a lender
(** A lender of buffers [make n] of capacity [size]. *)

val borrow : 'a lender -> int -> ('a -> 'b) -> 'b
(** [borrow l n f] is [f buf] for the domain's buffer when its
    capacity is at least [n], otherwise for a fresh [make n] that then
    replaces it. *)

val tally : hosts:int -> Message.traffic -> int array * int array
(** [(pairs, sums)]: the traffic's ordered pairs as keys
    [src * hosts + dst], in the order of their first message, and
    each pair's summed bytes, local pairs included — tallied in a
    dense [hosts x hosts] table {!borrow}ed from a lender, so each
    domain reuses it from one tally to the next.
    @raise Invalid_argument on an endpoint outside [[0, hosts)]. *)

val groups : hosts:int -> Message.traffic -> int array * int array * int array
(** [(pairs, sizes, counts)]: the traffic counted by (pair, size) —
    group [i] is [counts.(i)] messages of [sizes.(i)] bytes each over
    the ordered pair [pairs.(i)] (keyed as in {!tally}), local
    messages included.  Groups come in the order of their first
    message; a pair that shows up with a size other than its latest
    group's starts a new group, so a pair that mixes sizes may have
    several.  Tallied in the same borrowed table as {!tally}.
    @raise Invalid_argument on an endpoint outside [[0, hosts)]. *)

val of_traffic : hosts:int -> Message.traffic -> t
(** The volume graph of the traffic, [(src, dst) -> summed bytes],
    sorted by endpoint pair, read off {!tally}.  Local messages
    ([src = dst]) are kept; they carry no distance cost, but they do
    carry volume. *)
