(** Step 1 of the paper's heuristic: from the access graph to concrete
    allocation matrices.

    1b. Extract a maximum branching of the access graph (Edmonds).
    1c-i. Try to add every remaining edge: it can be added when it
    closes a multiple path with equal matrix weight or a cycle of
    weight the identity — the propagated products agree exactly, so
    the access is local for {e every} choice of the root allocation.
    1c-ii. When the product difference [D] is non-zero but
    rank-deficient, the access can still be made local by choosing the
    root allocation inside the left kernel of [D]; we accept the edge
    when a full-rank root satisfying all accumulated constraints still
    exists.

    Allocations are propagated along the forest ([M_v = M_root W(v)])
    and materialized as integer matrices of full rank [m]; inside each
    connected component they are determined up to left-multiplication
    by a unimodular matrix ({!apply_unimodular}). *)

open Linalg

type t = {
  graph : Access_graph.t;
  nest : Nestir.Loopnest.t;
  m : int;
  branching : Access_graph.edge list;  (** selected by Edmonds *)
  added : Access_graph.edge list;  (** accepted in step 1c *)
  allocs : (Access_graph.vertex * Mat.t) list;
  local : (string * string) list;  (** (stmt, label) made local *)
  residual : (string * string) list;
      (** in-graph accesses that stay non-local *)
  component_of : (Access_graph.vertex * int) list;
}

val run :
  ?vertex_constraint:(Access_graph.vertex -> Linalg.Ratmat.t -> bool) ->
  ?weighting:[ `Rank | `Unit ] ->
  m:int ->
  Nestir.Loopnest.t ->
  t
(** [vertex_constraint] lets a caller reject candidate allocations for
    specific vertices during materialization (used by the Platonoff
    baseline to preserve detected broadcasts: it demands
    [M_S v <> 0] along the broadcast directions).  Default accepts
    everything.
    @raise Failure when no full-rank materialization is found (not
    observed on meaningful nests; indicates a degenerate instance). *)

val alloc_of : t -> Access_graph.vertex -> Mat.t
(** @raise Not_found for vertices with no allocation (dimension below
    [m], e.g. scalars). *)

val component : t -> Access_graph.vertex -> int

val apply_unimodular : t -> component:int -> Mat.t -> t
(** Left-multiply every allocation matrix of one component by a
    unimodular matrix: locality is preserved (paper §2.3 remark). *)

val is_local : t -> stmt:string -> label:string -> bool


val pp : Format.formatter -> t -> unit
