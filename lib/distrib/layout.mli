(** Folding a virtual processor grid onto a physical grid.

    Standard HPF-style per-dimension schemes plus the paper's
    {e grouped partition} (§5.3): for an elementary communication of
    parameter [k] ([i -> i + k j]), virtual processors are grouped into
    [k] classes ([class c = i mod k]); communication only happens
    within a class, so classes are laid out contiguously (sort by
    [(i mod k, i / k)]) and the reordered sequence is distributed by
    blocks.  Intra-class shifts then become near-neighbour traffic. *)

type scheme =
  | Block
  | Cyclic
  | Cyclic_block of int
  | Grouped of int  (** the class count [k] *)

type t = scheme array
(** One scheme per virtual-grid dimension. *)

val place1d : scheme -> nv:int -> np:int -> int -> int
(** Physical coordinate of a virtual index. *)

val position1d : scheme -> nv:int -> int -> int
(** The linear position of a virtual index in the distribution order
    (identity except for [Grouped]). *)

val place :
  t -> vgrid:int array -> topo:Machine.Topology.t -> int array -> int
(** Physical rank of a virtual coordinate.
    @raise Invalid_argument on dimension mismatch. *)

val axes : t -> vgrid:int array -> topo:Machine.Topology.t -> int array array
(** The per-axis placement tables: [(axes t ~vgrid ~topo).(d).(x)] is
    {!place1d} of virtual index [x] on axis [d] times that axis's
    stride in {!Machine.Topology.rank_of}, so the rank {!place} gives
    a cell is the sum of its coordinates' entries.
    {!Machine.Patterns.fill_ranks} turns them into the cell→rank table.
    @raise Invalid_argument on dimension mismatch. *)

val all_block : int -> t
val all_cyclic : int -> t

val pp_scheme : Format.formatter -> scheme -> unit
