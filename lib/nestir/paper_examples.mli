(** The paper's running examples, as data.  Every loop has extent 8,
    or [n] (default 8) where a function takes one.

    The OCR of the source report lost the numeric entries of the
    Example 1 access matrices, so this module rebuilds an instance that
    satisfies every property the paper states and uses (see DESIGN.md):
    - non-perfect nest: [S1] of depth 2, [S2]/[S3] of depth 3;
    - arrays [a] (2-D), [b] (3-D), [c] (3-D), nine access matrices
      [F1..F9] with [F9] rank-deficient (hence excluded from the access
      graph, which has 8 edges);
    - no data dependences (all loops DOALL);
    - a maximum branching makes 5 accesses local, step 1c adds a 6th
      ([F8], closed by the path [a -> S1 -> c -> S3]);
    - the residual [F6] (read of [a] in [S2]) has a one-dimensional
      kernel and becomes a partial broadcast after a unimodular
      rotation (its direction before rotation is [(1,-1)^t]);
    - the residual [F3] (read of [a] in [S1]) has the data-flow matrix
      [V MS1 (Ma F3)^-1 V^-1 = [[1,2],[3,7]]], which decomposes into
      the product of exactly two elementary matrices
      [[[1,0],[3,1]] * [[1,2],[0,1]]]. *)

val example1 : unit -> Loopnest.t
(** The motivating example (§2.1), with loop extents 8 and 8 (the
    inner loop runs to 16). *)

val example1_f : int -> Linalg.Mat.t
(** [example1_f k] is the access matrix [F_k], [1 <= k <= 9]. *)

val example2_broadcast : unit -> Loopnest.t
(** §3.1's Example 2 shape: [S(i,j): .. = a(Fa I + ca)] where every
    row of processors reads the same element — a broadcast. *)

val example3_gather : unit -> Loopnest.t
(** §3.3's Example 3 shape: [S(i,j): a(Fa I + ca) = ..] with a
    rank-deficient access — a gather. *)

val example4_reduction : unit -> Loopnest.t
(** §3.4's Example 4 shape: [S(I): s = s + b(Fb I + cb)]. *)

val example5 : ?n:int -> unit -> Loopnest.t
(** §7.2's comparison example:
    [for t { forall i,j,k { S: a(t,i,j,k) = b(t,i,j) } }]. *)

val example5_schedule : Loopnest.t -> Schedule.t
(** Outer loop sequential, inner loops parallel. *)

val matmul : ?n:int -> unit -> Loopnest.t
(** [C(i,j) += A(i,k) * B(k,j)]: the classical kernel the introduction
    argues cannot be mapped without residual communications. *)

val gauss : unit -> Loopnest.t
(** Gaussian-elimination update step
    [A(i,j) = A(i,j) - A(i,k) * A(k,j)]: same motivation. *)

val stencil : ?n:int -> unit -> Loopnest.t
(** A 5-point Jacobi step: all accesses are translations; everything
    can be made local, residuals are nearest-neighbour shifts. *)

val lu : unit -> Loopnest.t
(** The LU-factorization update [A(i,j) -= A(i,k) * A(k,j)] in
    k-outer form: like [gauss], a kernel the introduction says cannot
    map onto a 2-D grid without residual communications. *)

val transpose : unit -> Loopnest.t
(** [B(i,j) = A(j,i)]: the minimal nest whose residual data-flow is a
    pure transposition — decomposed into unirow factors (det -1). *)

val seidel : unit -> Loopnest.t
(** A Gauss-Seidel sweep [A(i,j) = f(A(i-1,j), A(i,j-1), A(i,j))]:
    uniform flow dependences with distances (1,0) and (0,1), so the
    nest needs a Lamport hyperplane schedule ([theta = (1,1)]) rather
    than the all-parallel one. *)
