(* A communication-volume graph is the multiset of messages collapsed
   to one integer per ordered (src, dst) pair: a coalesced
   [Netsim.volume] prices its tally as one message per pair, and the
   mapping layer reads it as the QAP volume matrix. *)

type t = ((int * int) * int) list

let sorted (g : t) = List.sort compare g

(* A lender keeps one buffer per domain and lends it to one borrower
   at a time; a thread of the same domain that finds it lent out
   allocates its own.  The buffer comes back when the borrower
   returns; a borrower that raises keeps it, so a half-written buffer
   is never lent again. *)
type 'a lender = {
  slot : 'a option Atomic.t Domain.DLS.key;
  make : int -> 'a;
  size : 'a -> int;
}

let lender ~make ~size =
  { slot = Domain.DLS.new_key (fun () -> Atomic.make None); make; size }

let borrow l n f =
  let slot = Domain.DLS.get l.slot in
  let buf =
    match Atomic.exchange slot None with
    | Some b when l.size b >= n -> b
    | _ -> l.make n
  in
  let r = f buf in
  Atomic.set slot (Some buf);
  r

(* Dense tallies borrow their table.  A table of [hosts^2] words is
   too large for the minor heap, and a fresh one per coalesced pricing
   (about sixteen per sweep cell) fills the major heap faster than the
   collector reclaims it.  It is handed back with every entry -1. *)
type scratch = { vol : int array; keys : int array }

let tables =
  lender
    ~make:(fun size -> { vol = Array.make size (-1); keys = Array.make size 0 })
    ~size:(fun s -> Array.length s.vol)

let tally ~hosts ~locals (traffic : Message.traffic) =
  borrow tables (hosts * hosts) (fun { vol; keys } ->
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
      (pairs, sums))

let of_traffic ~hosts traffic =
  let pairs, sums = tally ~hosts ~locals:true traffic in
  (* keys are unique, so sorting them orders the pairs as [sorted] *)
  let g = Array.map2 (fun key sum -> (key, sum)) pairs sums in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) g;
  Array.to_list (Array.map (fun (key, sum) -> ((key / hosts, key mod hosts), sum)) g)
