(** Executing a mapped nest, with explicit data movement.

    The ultimate sanity check of a mapping: run the nest twice —
    sequentially, and distributed under the owner-computes rule with
    the optimizer's allocation matrices folded onto a physical machine
    — and compare both the results and the traffic.

    - every array element lives on the processor given by its
      allocation matrix (folded by the layout);
    - statement instance [S(I)] executes on the processor of [M_S I];
    - a read whose owner is a different physical processor costs one
      message; writes are sent back to the owner of the written
      element;
    - array values are deterministic hashes, so result equality is a
      real (if probabilistic) semantics check.

    An access the plan classifies [Local] must generate {e zero}
    messages; this is checked per access. *)

type access_traffic = {
  stmt : string;
  label : string;
  classification : string;
  messages : int;  (** remote fetches/stores over the whole execution *)
}

type stats = {
  traffic : access_traffic list;
  total_messages : int;
  semantics_preserved : bool;
      (** distributed results equal the sequential reference *)
  local_accesses_silent : bool;
      (** no access classified local generated a message *)
}

val machine : int -> Machine.Topology.t * (int array -> int)
(** [machine m]: the 4-per-dimension processor grid of dimension [m]
    that {!run} and {!Progtime} execute on, and the fold of a virtual
    processor coordinate onto its ranks — CYCLIC in every dimension,
    coordinates (which live in Z^m) first wrapped into a box of 64
    virtual processors per physical one per dimension. *)

val run : ?order:[ `Program | `Schedule ] -> Pipeline.result -> stats
(** Executes on {!machine} (CYCLIC, so that nearby virtual processors
    are distinct physical ones and remote accesses are visible).

    [order] selects the execution order of the distributed run:
    [`Program] (default) replays textual order; [`Schedule] executes by
    increasing timestep, {e reversing} the order of instances that
    share a timestep — an adversarial but schedule-legal order.  With a
    legal schedule the results still match the sequential reference;
    with an illegal one (e.g. all-parallel Gauss-Seidel) they visibly
    diverge. *)
