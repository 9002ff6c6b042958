(** Hermite normal forms over the integers, with unimodular factors.

    Two variants are exposed:
    - {!row_style}: [u * a = h] with [h] in row echelon (upper
      triangular on the pivot block), pivots positive, entries above a
      pivot reduced into [[0, pivot)].
    - {!paper_right}: the decomposition used by the paper (Appendix
      Definition 1 and the partial-broadcast axis alignment of §3.1):
      [a = q * h] with [q] unimodular and [h] lower triangular on its
      top block, zero below. *)

type row_result = { h : Mat.t; u : Mat.t }
(** [u * a = h], [u] unimodular. *)

type right_result = { q : Mat.t; h : Mat.t }
(** [a = q * h], [q] unimodular. *)

val row_style : Mat.t -> row_result

val paper_right : Mat.t -> right_result
(** Requires [a] of full column rank (columns <= rows).  The result has
    [h = [H; 0]] with [H] square lower triangular with positive
    diagonal.  @raise Invalid_argument otherwise. *)
