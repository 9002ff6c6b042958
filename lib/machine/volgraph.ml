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

(* Dense tallies reuse one scratch table per domain.  A table of
   [hosts^2] words is too large for the minor heap, and a fresh one per
   coalesced pricing (about sixteen per sweep cell) fills the major
   heap faster than the collector reclaims it.  The table is lent to
   one tally at a time (a thread of the same domain that finds it lent
   out allocates its own) and handed back with every entry -1; a tally
   that raises keeps its table, dirty, and the next one starts
   afresh. *)
type scratch = { vol : int array; keys : int array }

let spare = Domain.DLS.new_key (fun () -> Atomic.make None)

let tally ~hosts ~locals (traffic : Message.traffic) =
  let slot = Domain.DLS.get spare in
  let size = hosts * hosts in
  let { vol; keys } =
    match Atomic.exchange slot None with
    | Some s when Array.length s.vol >= size -> s
    | _ -> { vol = Array.make size (-1); keys = Array.make size 0 }
  in
  let k = ref 0 in
  traffic (fun s d bytes ->
      if locals || s <> d then begin
        if s < 0 || s >= hosts || d < 0 || d >= hosts then
          invalid_arg "Volgraph: message endpoint is not a host";
        let key = (s * hosts) + d in
        let v = vol.(key) in
        if v < 0 then begin
          vol.(key) <- bytes;
          keys.(!k) <- key;
          incr k
        end
        else vol.(key) <- v + bytes
      end);
  let pairs = Array.sub keys 0 !k in
  let sums = Array.map (fun key -> vol.(key)) pairs in
  Array.iter (fun key -> vol.(key) <- -1) pairs;
  Atomic.set slot (Some { vol; keys });
  (pairs, sums)

let of_traffic ~hosts traffic =
  let pairs, sums = tally ~hosts ~locals:true traffic in
  let g = Array.mapi (fun i key -> ((key / hosts, key mod hosts), sums.(i))) pairs in
  Array.sort compare g;
  Array.to_list g
