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
   route crossed (a zero-byte message still lists its links). *)
let add_route_loads c weights loads bytes route =
  for i = 0 to Array.length route - 1 do
    let id = route.(i) in
    let cur = loads.(id) in
    loads.(id) <- (if cur < 0 then 0 else cur) + effective_load c weights id bytes
  done

let fresh_loads c = Array.make (Compiled.nlinks c) (-1)

let array_max (a : int array) = Array.fold_left (fun m v -> if v > m then v else m) 0 a

(* The crossed links of [loads], sorted by link, built by [f]. *)
let crossed_links c loads f =
  let acc = ref [] in
  for id = Array.length loads - 1 downto 0 do
    if loads.(id) >= 0 then acc := f id (Compiled.link c id) loads.(id) :: !acc
  done;
  !acc

let link_loads ?(faults = Fault.none) topo (traffic : Message.traffic) =
  let c = Compiled.get topo in
  let weights = fault_weights c faults in
  let loads = fresh_loads c in
  traffic (fun src dst bytes ->
      if src <> dst then
        match route_ids c faults ~src ~dst with
        | Some route -> add_route_loads c weights loads bytes route
        | None -> ());
  crossed_links c loads (fun _ l carried -> (l, carried))

(* Coalesced remote traffic: pair keys [src * hosts + dst] in the
   order of their first message, and their summed bytes. *)
type pairs = { keys : int array; sums : int array; hosts : int }

type volume = { traffic : Message.traffic; coalesced : pairs option }

let volume ?(coalesce = true) topo traffic =
  let coalesced =
    if not coalesce then None
    else
      let hosts = Topology.size topo in
      let keys, sums = Volgraph.tally ~hosts ~locals:false traffic in
      Some { keys; sums; hosts }
  in
  { traffic; coalesced }

let emit_pairs p emit =
  Array.iteri (fun i key -> emit (key / p.hosts) (key mod p.hosts) p.sums.(i)) p.keys

let priced v = match v.coalesced with Some p -> emit_pairs p | None -> v.traffic

(* Pair keys (in the order of their first message) and their sums,
   replayed in the order a [Hashtbl] keyed by [(src, dst)] folds them
   into a list: the order message lists were coalesced in before
   traffic became a stream.  The table's shape depends only on the
   keys and the order they were added in, not on the sums, so adding
   each key once rebuilds it.  [replay] and the telemetry of a
   coalesced [price] keep this order. *)
let legacy_order ~hosts keys sums =
  let tbl = Hashtbl.create 64 in
  Array.iteri (fun i key -> Hashtbl.replace tbl (key / hosts, key mod hosts) i) keys;
  let order = Hashtbl.fold (fun pair i l -> (pair, i) :: l) tbl [] in
  fun emit -> List.iter (fun ((src, dst), i) -> emit src dst sums.(i)) order

let replay v =
  match v.coalesced with
  | None -> v.traffic
  | Some p ->
    (* local pairs too, each summed once *)
    let keys, sums = Volgraph.tally ~hosts:p.hosts ~locals:true v.traffic in
    legacy_order ~hosts:p.hosts keys sums

let tele_message ~src ~dst ~bytes ~hops outcome =
  let at = if outcome = Obs.Telemetry.Unreachable then -1 else 0 in
  {
    Obs.Telemetry.msg_src = src;
    msg_dst = dst;
    msg_bytes = bytes;
    injected_at = at;
    finished_at = at;
    hops;
    queue_wait = 0;
    retransmits = 0;
    outcome;
  }

let tele_run ~sim ~label ~faults ~total_cycles topo ~messages ~links ~events =
  {
    Obs.Telemetry.sim;
    label;
    dims = (if Topology.is_grid topo then Topology.dims topo else [||]);
    torus = Topology.is_torus topo;
    topo_spec = (if Topology.is_grid topo then "" else Topology.to_string topo);
    total_cycles;
    fault_spec = Fault.label faults;
    messages;
    links;
    events;
  }

let price ?(faults = Fault.none) ?(label = "") topo params v =
  let tele = Obs.Telemetry.enabled () in
  let c = Compiled.get topo in
  let weights = fault_weights c faults in
  let n = Compiled.hosts c in
  let send = Array.make n 0 and recv = Array.make n 0 in
  let total_bytes = ref 0 and total_hops = ref 0 and max_hops = ref 0 in
  let unreachable = ref 0 in
  let delivered = ref 0 in
  let loads = fresh_loads c in
  let t_msgs = ref [] (* reverse *) in
  let t_packets = if tele then Array.make (Compiled.nlinks c) 0 else [||] in
  let price_one src dst bytes =
    (* local messages are free *)
    if src <> dst then begin
      match route_ids c faults ~src ~dst with
      | None ->
        incr unreachable;
        if Obs.enabled () then Obs.incr "fault.injected";
        if tele then
          t_msgs :=
            tele_message ~src ~dst ~bytes ~hops:0 Obs.Telemetry.Unreachable :: !t_msgs
      | Some route ->
        incr delivered;
        send.(src) <- send.(src) + 1;
        recv.(dst) <- recv.(dst) + 1;
        total_bytes := !total_bytes + bytes;
        (* hops follow the actual route, detours included *)
        let h = Array.length route in
        total_hops := !total_hops + h;
        if h > !max_hops then max_hops := h;
        add_route_loads c weights loads bytes route;
        if tele then begin
          t_msgs :=
            tele_message ~src ~dst ~bytes ~hops:h Obs.Telemetry.Delivered :: !t_msgs;
          Array.iter (fun id -> t_packets.(id) <- t_packets.(id) + 1) route
        end
    end
  in
  (match v.coalesced with
  | Some p when tele -> legacy_order ~hosts:p.hosts p.keys p.sums
  | _ -> priced v)
    price_one;
  let max_link_load = array_max loads in
  let max_sender = array_max send in
  let max_receiver = array_max recv in
  let serial = max max_sender max_receiver in
  let time =
    if !delivered = 0 then 0.0
    else
      (params.alpha *. float_of_int serial)
      +. (params.beta *. float_of_int max_link_load)
      +. (params.hop *. float_of_int !max_hops)
  in
  if Obs.enabled () then begin
    Obs.incr "netsim.runs";
    Obs.incr ~by:!delivered "netsim.messages";
    Obs.observe "netsim.time" time;
    Obs.observe "netsim.max_link_load" (float_of_int max_link_load)
  end;
  if tele then begin
    let links =
      crossed_links c loads (fun id (a, b) carried ->
          {
            Obs.Telemetry.link_src = a;
            link_dst = b;
            busy = 0;
            carried;
            packets = t_packets.(id);
            peak_queue = 0;
            queue_area = 0;
            stalled = 0;
          })
    in
    let locals = ref [] (* reverse *) in
    v.traffic (fun src dst bytes ->
        if src = dst then
          locals :=
            tele_message ~src ~dst ~bytes ~hops:0 Obs.Telemetry.Delivered :: !locals);
    Obs.Telemetry.record_run
      (tele_run ~sim:"netsim" ~label ~faults ~total_cycles:0 topo
         ~messages:(List.rev_append !locals (List.rev !t_msgs))
         ~links ~events:[])
  end;
  {
    time;
    messages = !delivered;
    total_bytes = !total_bytes;
    total_hops = !total_hops;
    max_link_load;
    max_sender;
    max_receiver;
    max_hops = !max_hops;
    unreachable = !unreachable;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "time %.2f (msgs %d, bytes %d, max link %d, max send %d, max recv %d, max hops %d%s)"
    s.time s.messages s.total_bytes s.max_link_load s.max_sender s.max_receiver
    s.max_hops
    (if s.unreachable > 0 then Printf.sprintf ", unreachable %d" s.unreachable
     else "")
