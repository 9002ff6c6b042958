type t = {
  name : string;
  capture : 'a. worker:int -> (unit -> 'a) -> 'a * (unit -> unit);
}

let with_dls key v f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key v;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f
