(* A communication-volume graph is the multiset of messages collapsed
   to one integer per ordered (src, dst) pair: message coalescing turns
   it back into messages, and the mapping layer reads it as the QAP
   volume matrix. *)

type t = ((int * int) * int) list

let of_messages msgs =
  let a = Hashtbl.create 64 in
  List.iter
    (fun (m : Message.t) ->
      let key = (m.Message.src, m.Message.dst) in
      let cur = Option.value ~default:0 (Hashtbl.find_opt a key) in
      Hashtbl.replace a key (cur + m.Message.bytes))
    msgs;
  Hashtbl.fold (fun k v l -> (k, v) :: l) a []

let sorted (g : t) = List.sort compare g

let total (g : t) = List.fold_left (fun s (_, b) -> s + b) 0 g

let nonlocal (g : t) = List.filter (fun ((s, d), _) -> s <> d) g
