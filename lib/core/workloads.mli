(** Named workloads shared by the CLI, the examples and the benchmark
    harness. *)

open Nestir

type t = {
  name : string;
  description : string;
  nest : Loopnest.t;
  schedule : Schedule.t;
}

val all : unit -> t list
val generated : seed:int -> count:int -> t list
(** The nests {!Nestir.Gennest.generate_many} draws from [seed], each
    under its all-parallel schedule — the seeded corpus that leaves
    residual traffic the curated workloads mostly do not. *)

val find : string -> t
(** @raise Not_found on unknown name. *)
