type params = { alpha : float; beta : float; hop : float }

type stats = {
  time : float;
  messages : int;
  total_bytes : int;
  total_hops : int;
  max_link_load : int;
  max_sender : int;
  max_receiver : int;
  max_hops : int;
  unreachable : int;
}

(* The link ids the route from [src] to [dst] crosses under the fault
   model, or None when the message cannot be delivered at all.
   Without a severed link or a dead node every message takes its plain
   route, from the compiled topology's table; otherwise the
   {!Fault.route} detour is mapped to ids. *)
let route_ids c faults ~src ~dst =
  if not (Fault.has_severed faults) then Some (Compiled.route c ~src ~dst)
  else begin
    let n = Compiled.hosts c in
    if src < 0 || src >= n || dst < 0 || dst >= n then
      invalid_arg "Netsim: message endpoint is not a host";
    Option.map (Compiled.ids_of_hops c)
      (Fault.route faults (Compiled.topology c) ~src ~dst)
  end

(* Per-link fault weights, once per run: expected retransmissions over
   the link's flaky probability divided by its remaining bandwidth
   fraction.  None on a healthy machine. *)
let fault_weights c faults =
  if Fault.is_none faults then None
  else
    Some
      (Array.init (Compiled.nlinks c) (fun id ->
           let l = Compiled.link c id in
           Fault.expected_transmissions faults l /. Fault.bandwidth_factor faults l))

(* Effective bytes link [id] must carry for [bytes] payload bytes: the
   fault weight — the degraded-capacity cost model — divided by the
   link's capacity (a fat-tree uplink of capacity k moves k bytes per
   unit load).  Exact integer identity (no float round-trip) on a
   healthy unit-capacity link, i.e. every fault-free grid link. *)
let effective_load c weights id bytes =
  let cap = Compiled.capacity c id in
  match weights with
  | None when cap = 1 -> bytes
  | _ ->
    let w = match weights with Some w -> w.(id) | None -> 1.0 in
    int_of_float (ceil (float_of_int bytes *. w /. float_of_int cap))

(* The one per-link accumulation, shared by [link_loads] and [price]:
   [loads] is indexed by link id, and a negative entry marks a link no
   route crossed (a zero-byte message still lists its links).  [count]
   messages of [bytes] each add [count] times one message's effective
   load: the load is rounded per message, so the product is exact. *)
let add_route_loads c weights loads ~count bytes route =
  for i = 0 to Array.length route - 1 do
    let id = route.(i) in
    let cur = loads.(id) in
    loads.(id) <-
      (if cur < 0 then 0 else cur) + (count * effective_load c weights id bytes)
  done

let fresh_loads c = Array.make (Compiled.nlinks c) (-1)

let array_max (a : int array) = Array.fold_left (fun m v -> if v > m then v else m) 0 a

(* Traffic counted for pricing: group [i] is [counts.(i)] messages of
   [sizes.(i)] bytes over the pair keyed [keys.(i) = src * hosts +
   dst], groups in the order of their first message, local ones
   included.  A coalesced volume has one group per pair, of count 1
   and its bytes summed. *)
type groups = { hosts : int; keys : int array; sizes : int array; counts : int array }

let iter_groups g f =
  for i = 0 to Array.length g.keys - 1 do
    let key = g.keys.(i) in
    f (key / g.hosts) (key mod g.hosts) g.sizes.(i) g.counts.(i)
  done

let grouped ~hosts traffic =
  let keys, sizes, counts = Volgraph.groups ~hosts traffic in
  { hosts; keys; sizes; counts }

let coalesced ~hosts traffic =
  let keys, sums = Volgraph.tally ~hosts traffic in
  { hosts; keys; sizes = sums; counts = Array.make (Array.length keys) 1 }

(* A coalesced volume is tallied when it is made and keeps only its
   count: every reader reads the count, never the messages.  An
   uncoalesced one keeps its traffic, counted on its first price,
   once. *)
type volume = Coalesced of groups | Uncoalesced of Message.traffic * groups Lazy.t

let volume ?(coalesce = true) topo traffic =
  let hosts = Topology.size topo in
  if coalesce then Coalesced (coalesced ~hosts traffic)
  else Uncoalesced (traffic, lazy (grouped ~hosts traffic))

let groups_of = function Coalesced g -> g | Uncoalesced (_, g) -> Lazy.force g

let relabel perm v =
  let rename g =
    let h = g.hosts in
    { g with keys = Array.map (fun key -> (perm.(key / h) * h) + perm.(key mod h)) g.keys }
  in
  match v with
  | Coalesced g -> Coalesced (rename g)
  | Uncoalesced (traffic, g) ->
    Uncoalesced
      ( (fun emit -> traffic (fun src dst bytes -> emit perm.(src) perm.(dst) bytes)),
        lazy (rename (Lazy.force g)) )

(* The count is taken when [pairs] is applied, not when the stream
   runs: a stream that counted inside another tally would find the
   domain's table lent out and allocate one of its own. *)
let pairs v =
  let g = groups_of v in
  fun emit -> iter_groups g (fun src dst bytes count -> emit src dst (bytes * count))

(* A volume's groups, bytes summed, list its pairs in the order of
   their first message, so tallying them volume after volume coalesces
   the traffic run one volume after another. *)
let coalesce topo vs =
  let streams = List.map pairs vs in
  Coalesced
    (coalesced ~hosts:(Topology.size topo) (fun emit ->
         List.iter (fun pairs -> pairs emit) streams))

let priced = function
  | Coalesced g ->
    fun emit -> iter_groups g (fun src dst bytes _ -> if src <> dst then emit src dst bytes)
  | Uncoalesced (traffic, _) -> traffic

(* Pairs, in the order of their first message, replayed in the order a
   [Hashtbl] keyed by [(src, dst)] folds them into a list: the order
   message lists were coalesced in before traffic became a stream.
   The table's shape depends only on the pairs and the order they were
   added in, not on the sums, so adding each pair once rebuilds it.
   Only [replay] keeps this order. *)
let legacy_order (pairs : Message.traffic) =
  let tbl = Hashtbl.create 64 in
  let sums = ref [] (* reverse *) and i = ref 0 in
  pairs (fun src dst bytes ->
      Hashtbl.replace tbl (src, dst) !i;
      sums := bytes :: !sums;
      incr i);
  let sums = Array.of_list (List.rev !sums) in
  let order = Hashtbl.fold (fun pair i l -> (pair, i) :: l) tbl [] in
  fun emit -> List.iter (fun ((src, dst), i) -> emit src dst sums.(i)) order

let replay = function
  | Coalesced _ as v -> legacy_order (pairs v)
  | Uncoalesced (traffic, _) -> traffic

let link_loads ~faults topo (traffic : Message.traffic) =
  let c = Compiled.get topo in
  let weights = fault_weights c faults in
  let loads = fresh_loads c in
  iter_groups (grouped ~hosts:(Compiled.hosts c) traffic) (fun src dst bytes count ->
      if src <> dst then
        match route_ids c faults ~src ~dst with
        | Some route -> add_route_loads c weights loads ~count bytes route
        | None -> ());
  (* the crossed links, sorted by link *)
  let acc = ref [] in
  for id = Array.length loads - 1 downto 0 do
    if loads.(id) >= 0 then acc := (Compiled.link c id, loads.(id)) :: !acc
  done;
  !acc

(* The one time formula: every count it reads is the topology's and the
   traffic's, so a price under one model's parameters is retimed to
   another's without routing a message again. *)
let retime params s =
  let time =
    if s.messages = 0 then 0.0
    else
      (params.alpha *. float_of_int (max s.max_sender s.max_receiver))
      +. (params.beta *. float_of_int s.max_link_load)
      +. (params.hop *. float_of_int s.max_hops)
  in
  { s with time }

let price ?(faults = Fault.none) topo params v =
  let c = Compiled.get topo in
  let weights = fault_weights c faults in
  let n = Compiled.hosts c in
  let send = Array.make n 0 and recv = Array.make n 0 in
  let total_bytes = ref 0 and total_hops = ref 0 and max_hops = ref 0 in
  let unreachable = ref 0 in
  let delivered = ref 0 in
  let loads = fresh_loads c in
  (* [count] messages of [bytes] from [src] to [dst], routed once;
     local ones are free *)
  iter_groups (groups_of v) (fun src dst bytes count ->
      if src <> dst then
        match route_ids c faults ~src ~dst with
        | None ->
          unreachable := !unreachable + count;
          if Obs.enabled () then Obs.incr ~by:count "fault.injected"
        | Some route ->
          delivered := !delivered + count;
          send.(src) <- send.(src) + count;
          recv.(dst) <- recv.(dst) + count;
          total_bytes := !total_bytes + (count * bytes);
          (* hops follow the actual route, detours included *)
          let h = Array.length route in
          total_hops := !total_hops + (count * h);
          if h > !max_hops then max_hops := h;
          add_route_loads c weights loads ~count bytes route);
  let max_link_load = array_max loads in
  let stats =
    retime params
      {
        time = 0.0;
        messages = !delivered;
        total_bytes = !total_bytes;
        total_hops = !total_hops;
        max_link_load;
        max_sender = array_max send;
        max_receiver = array_max recv;
        max_hops = !max_hops;
        unreachable = !unreachable;
      }
  in
  if Obs.enabled () then begin
    Obs.incr "netsim.runs";
    Obs.incr ~by:!delivered "netsim.messages";
    Obs.observe "netsim.time" stats.time;
    Obs.observe "netsim.max_link_load" (float_of_int max_link_load)
  end;
  stats

let pp_stats ppf s =
  Format.fprintf ppf
    "time %.2f (msgs %d, bytes %d, max link %d, max send %d, max recv %d, max hops %d%s)"
    s.time s.messages s.total_bytes s.max_link_load s.max_sender s.max_receiver
    s.max_hops
    (if s.unreachable > 0 then Printf.sprintf ", unreachable %d" s.unreachable
     else "")
