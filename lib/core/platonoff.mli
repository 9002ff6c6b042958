(** The Platonoff baseline (paper §7.1/§7.2).

    Platonoff's strategy inverts the paper's ordering:
    1. detect every macro-communication (broadcast) present in the
       {e initial} program: a read access whose matrix kernel meets
       the schedule kernel;
    2. write the conditions that {e preserve} those broadcasts onto the
       prototype mapping ([M_S v <> 0] along the broadcast directions,
       partial broadcasts parallel to the axes);
    3. only then zero out as many remaining communications as possible.

    On the paper's Example 5 this keeps [n] broadcasts alive, while
    the paper's own heuristic (zero out first, §6) finds a mapping
    with no communication at all. *)

open Nestir

type result = {
  nest : Loopnest.t;
  m : int;
  schedule : Schedule.t;
  reserved : (string * string) list;
      (** (stmt, label) withheld from alignment as macro-comms *)
  alloc : Alignment.Alloc.t;
  plan : Commplan.t;
}

val run : ?m:int -> schedule:Schedule.t -> Loopnest.t -> result

val non_local : result -> int
val pp : Format.formatter -> result -> unit
