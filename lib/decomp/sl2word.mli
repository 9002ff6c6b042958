(** Words in the standard generators of SL2(Z).

    [S = [[0,-1],[1,0]]] and [T = U(1) = [[1,1],[0,1]]] generate
    SL2(Z); the elementary communications of the paper are powers of
    [T] and its transpose, so expressing a data-flow matrix as an
    [S/T] word connects the decomposition to the classical
    presentation [SL2(Z) = <S, T | S^4, (ST)^6 = S^2 ...>].  The word
    length is another measure of communication complexity. *)

type letter = S | T of int  (** [T k] stands for [T^k], [k <> 0] *)

val s_mat : Linalg.Mat.t
val t_mat : int -> Linalg.Mat.t

val word : Linalg.Mat.t -> letter list
(** A word whose product is the input (determinant-1 2x2).
    Derived from the Euclidean decomposition: [L(k) = S^-1 T^-k S =
    S^3 T^-k S].
    @raise Invalid_argument unless 2x2 with determinant 1. *)

val eval : letter list -> Linalg.Mat.t

val length : letter list -> int
(** Number of generator applications, counting [T k] as [|k|] and [S]
    as 1. *)
