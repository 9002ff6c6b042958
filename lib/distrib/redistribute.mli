(** Changing the data distribution at runtime.

    The grouped partition is tailored to one elementary communication;
    if the data currently lives under BLOCK or CYCLIC, adopting it
    costs a redistribution (an all-to-all-ish remap).  This module
    prices that remap and answers the adoption question the paper
    leaves implicit: after how many repetitions of the communication
    does the grouped partition pay for itself? *)

open Linalg

val time :
  Machine.Models.t ->
  vgrid:int array ->
  from_layout:Layout.t ->
  to_layout:Layout.t ->
  ?bytes:int ->
  unit ->
  Machine.Netsim.stats

val break_even :
  Machine.Models.t ->
  vgrid:int array ->
  from_layout:Layout.t ->
  to_layout:Layout.t ->
  flow:Mat.t ->
  int option
(** Smallest number of repetitions of the 8-byte [flow] communication for
    which [redistribution + n * time(to)] beats [n * time(from)];
    [None] when the target layout never wins. *)
