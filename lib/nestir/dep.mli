(** Classical affine dependence analysis.

    Era-typical conservative tests, used to check the paper's claim
    that its examples are fully parallel (all DOALL):
    - the {e GCD test}: the dependence equation
      [F1 I1 - F2 I2 = c2 - c1] must have an integer solution;
    - the {e Banerjee bounds test}: each scalar equation must be
      satisfiable with both iteration vectors inside their rectangular
      domains.

    A dependence is reported when both tests pass (may-dependence:
    conservative, no false negatives for rectangular domains). *)

type kind = Flow | Anti | Output

type dep = {
  kind : kind;
  src_stmt : string;
  src_access : string;  (** access label (or array name if unlabeled) *)
  dst_stmt : string;
  dst_access : string;
  array_name : string;
}

val gcd_test : Affine.t -> Affine.t -> bool
(** [gcd_test a1 a2]: does [a1 I1 = a2 I2] admit an integer solution?
    (Ignores domain bounds.) *)

val banerjee_test :
  extent1:int array -> extent2:int array -> Affine.t -> Affine.t -> bool
(** Bounds test over rectangular domains [0, extent_k). *)

val analyze : Loopnest.t -> dep list
(** All may-dependences (flow, anti, output — read/read pairs are not
    dependences). *)

val is_doall : Loopnest.t -> bool
(** No dependences at all: every loop of the nest is parallel. *)
