(* A topology compiled once per process: dense directed-link ids with
   their capacities, a dense host-pair table of routes as link-id
   arrays filled on first use, and the host-to-host hop-distance
   table.  Netsim prices on the ids, Mapping and Bounds read the
   distances.

   Domains share a compiled topology without taking a lock per
   message: the only lock guards the per-process registry, once per
   lookup.  A route slot is written at most once per domain that
   misses it, and every writer stores an equal array, so a race is
   harmless. *)

type t = {
  topo : Topology.t;
  hosts : int;
  ends : (int * int) array;  (* directed link id -> (from, to) *)
  caps : int array;  (* directed link id -> capacity *)
  ids : (int, int) Hashtbl.t;  (* from * nodes + to -> link id; read-only *)
  nodes : int;
  undirected : ((int * int) * int) list;  (* Topology.links, computed once *)
  routes : int array array;  (* src * hosts + dst -> route, or [unset] *)
  dist : int array array option Atomic.t;
}

(* The empty route slot, told apart from an empty route by physical
   equality. *)
let unset = [| -1 |]

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
  let hosts = Topology.size topo in
  {
    topo;
    hosts;
    ends;
    caps = Array.map (Topology.link_capacity topo) ends;
    ids;
    nodes;
    undirected;
    routes = Array.make (hosts * hosts) unset;
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

let hosts c = c.hosts

(* Two domains may both fill a missing slot — with equal arrays, so
   either write may win. *)
let route c ~src ~dst =
  if src < 0 || src >= c.hosts || dst < 0 || dst >= c.hosts then
    invalid_arg "Compiled.route: endpoint out of range";
  let key = (src * c.hosts) + dst in
  let r = c.routes.(key) in
  if r != unset then r
  else begin
    let r = ids_of_hops c (Topology.route c.topo ~src ~dst) in
    c.routes.(key) <- r;
    r
  end

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
