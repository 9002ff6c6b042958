(* A point-to-point message between physical ranks, and a replayable
   stream of them. *)

type t = { src : int; dst : int; bytes : int }

let make ~src ~dst ~bytes =
  if bytes < 0 then invalid_arg "Message.make: negative size";
  { src; dst; bytes }

type traffic = (int -> int -> int -> unit) -> unit

let of_list msgs emit = List.iter (fun m -> emit m.src m.dst m.bytes) msgs
