(* A communication-volume graph is the multiset of messages collapsed
   to one integer per ordered (src, dst) pair: a coalesced
   [Netsim.volume] prices its tally as one message per pair, and the
   mapping layer reads it as the QAP volume matrix. *)

type t = ((int * int) * int) list

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
type scratch = { vol : int array; keys : int array; sizes : int array; counts : int array }

let tables =
  lender
    ~make:(fun size ->
      {
        vol = Array.make size (-1);
        keys = Array.make size 0;
        sizes = Array.make size 0;
        counts = Array.make size 0;
      })
    ~size:(fun s -> Array.length s.vol)

let check_hosts ~hosts s d =
  if s < 0 || s >= hosts || d < 0 || d >= hosts then
    invalid_arg "Volgraph: message endpoint is not a host"

let tally ~hosts (traffic : Message.traffic) =
  borrow tables (hosts * hosts) (fun { vol; keys; _ } ->
      let k = ref 0 in
      traffic (fun s d bytes ->
          check_hosts ~hosts s d;
          let key = (s * hosts) + d in
          let v = vol.(key) in
          if v < 0 then begin
            vol.(key) <- bytes;
            keys.(!k) <- key;
            incr k
          end
          else vol.(key) <- v + bytes);
      let pairs = Array.sub keys 0 !k in
      let sums = Array.map (fun key -> vol.(key)) pairs in
      Array.iter (fun key -> vol.(key) <- -1) pairs;
      (pairs, sums))

(* [vol.(key)] holds the index of the pair's latest group.  Groups
   outnumber the table's [hosts^2] slots only when pairs mix sizes; the
   arrays then grow for this call alone. *)
let groups ~hosts (traffic : Message.traffic) =
  borrow tables (hosts * hosts) (fun s ->
      let vol = s.vol in
      let keys = ref s.keys and sizes = ref s.sizes and counts = ref s.counts in
      let k = ref 0 in
      let grow () =
        let more a = Array.append a (Array.make (Array.length a + 1) 0) in
        keys := more !keys;
        sizes := more !sizes;
        counts := more !counts
      in
      traffic (fun src dst bytes ->
          check_hosts ~hosts src dst;
          let key = (src * hosts) + dst in
          let g = vol.(key) in
          if g >= 0 && !sizes.(g) = bytes then !counts.(g) <- !counts.(g) + 1
          else begin
            if !k = Array.length !keys then grow ();
            !keys.(!k) <- key;
            !sizes.(!k) <- bytes;
            !counts.(!k) <- 1;
            vol.(key) <- !k;
            incr k
          end);
      let keys = Array.sub !keys 0 !k in
      Array.iter (fun key -> vol.(key) <- -1) keys;
      (keys, Array.sub !sizes 0 !k, Array.sub !counts 0 !k))

let of_traffic ~hosts traffic =
  let pairs, sums = tally ~hosts traffic in
  (* keys are unique, so sorting them orders the pairs by endpoints *)
  let g = Array.map2 (fun key sum -> (key, sum)) pairs sums in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) g;
  Array.to_list (Array.map (fun (key, sum) -> ((key / hosts, key mod hosts), sum)) g)
