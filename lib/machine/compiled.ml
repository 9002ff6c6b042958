(* A topology compiled once per process: dense directed-link ids with
   their capacities, memoized routes as link-id arrays, and the
   host-to-host hop-distance table.  Netsim prices on the ids, Mapping
   and Bounds read the distances.

   Every field is either immutable after construction or an [Atomic]
   holding an immutable value that is replaced wholesale, so domains
   share a compiled topology without taking a lock per message: the
   only lock guards the per-process registry, once per lookup. *)

module Imap = Map.Make (Int)

type t = {
  topo : Topology.t;
  hosts : int;
  ends : (int * int) array;  (* directed link id -> (from, to) *)
  caps : int array;  (* directed link id -> capacity *)
  ids : (int, int) Hashtbl.t;  (* from * nodes + to -> link id; read-only *)
  nodes : int;
  undirected : ((int * int) * int) list;  (* Topology.links, computed once *)
  routes : int array Imap.t Atomic.t;  (* src * hosts + dst -> route *)
  dist : int array array option Atomic.t;
}

(* Directed ids follow the lexicographic order of (from, to), so a
   scan by id visits links in sorted order.  A torus dimension of
   extent 2 lists the same link twice in [Topology.links]; it gets one
   id per direction. *)
let compile topo =
  let undirected = Topology.links topo in
  let ends =
    Array.of_list
      (List.sort_uniq compare
         (List.concat_map (fun ((a, b), _) -> [ (a, b); (b, a) ]) undirected))
  in
  let nodes = Topology.nodes topo in
  let ids = Hashtbl.create (2 * Array.length ends) in
  Array.iteri (fun id (a, b) -> Hashtbl.replace ids ((a * nodes) + b) id) ends;
  {
    topo;
    hosts = Topology.size topo;
    ends;
    caps = Array.map (Topology.link_capacity topo) ends;
    ids;
    nodes;
    undirected;
    routes = Atomic.make Imap.empty;
    dist = Atomic.make None;
  }

(* Keyed by the canonical spec, not by value: model constructors build
   a fresh topology value on every call. *)
let registry : (string, t) Hashtbl.t = Hashtbl.create 8
let registry_lock = Mutex.create ()

let get topo =
  let key = Topology.to_string topo in
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry key with
      | Some c -> c
      | None ->
        let c = compile topo in
        Hashtbl.replace registry key c;
        c)

let topology c = c.topo
let nlinks c = Array.length c.ends
let link c id = c.ends.(id)
let capacity c id = c.caps.(id)
let undirected c = c.undirected

let link_id c (a, b) =
  if a < 0 || a >= c.nodes || b < 0 || b >= c.nodes then raise Not_found
  else Hashtbl.find c.ids ((a * c.nodes) + b)

let ids_of_hops c hops = Array.of_list (List.map (link_id c) hops)

(* Lock-free memo: readers take the current map; a writer that loses
   the race to publish simply retries on the newer map.  Two domains
   may both compute a missing route — the same array either way. *)
let route c ~src ~dst =
  if src < 0 || src >= c.hosts || dst < 0 || dst >= c.hosts then
    invalid_arg "Compiled.route: endpoint out of range";
  let key = (src * c.hosts) + dst in
  match Imap.find key (Atomic.get c.routes) with
  | r -> r
  | exception Not_found ->
    let r = ids_of_hops c (Topology.route c.topo ~src ~dst) in
    let rec publish () =
      let m = Atomic.get c.routes in
      if not (Atomic.compare_and_set c.routes m (Imap.add key r m)) then publish ()
    in
    publish ();
    r

let distances c =
  match Atomic.get c.dist with
  | Some d -> d
  | None ->
    let n = c.hosts in
    let d =
      Array.init n (fun src ->
          Array.init n (fun dst -> Topology.distance c.topo ~src ~dst))
    in
    ignore (Atomic.compare_and_set c.dist None (Some d) : bool);
    Option.get (Atomic.get c.dist)
