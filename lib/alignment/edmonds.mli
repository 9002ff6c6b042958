(** Maximum branching (Edmonds/Karp).

    A branching of a directed graph is a cycle-free edge set in which
    every vertex has at most one incoming edge; a maximum branching has
    the largest possible total weight (Evans & Minieka, cited by the
    paper for step 1b of the heuristic).

    The implementation is the classical cycle-contraction algorithm:
    greedily keep the best positive incoming edge of every vertex,
    contract any cycle, re-weight the edges entering the cycle by
    [w' = w - w(replaced cycle edge) + w(min cycle edge)], recurse and
    expand.  Edges with non-positive weight never help a maximum
    branching and are ignored. *)

type edge = { src : int; dst : int; weight : int; id : int }
(** [id] identifies the edge in the result (ids must be unique). *)

val maximum_branching : n:int -> edge list -> edge list
(** The selected edges (in no particular order).  Vertices are
    [0 .. n-1]; self-loops are ignored.  Deterministic: ties are broken
    towards the smallest [id]. *)
