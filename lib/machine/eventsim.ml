type mode = Store_forward | Wormhole

type params = { bytes_per_cycle : int; startup_cycles : int; mode : mode }

let default_params =
  { bytes_per_cycle = 16; startup_cycles = 64; mode = Store_forward }

type result = {
  cycles : int;
  delivered : int;
  dropped : int;
  retransmits : int;
  unreachable : int;
  max_link_queue : int;
  max_inject_wait : int;
  total_link_busy : int;
  telemetry : Obs.Telemetry.run;
}

exception Deadlock of { cycles : int; in_flight : int }

let record_result r =
  if Obs.enabled () then begin
    Obs.incr "eventsim.runs";
    Obs.observe "eventsim.cycles" (float_of_int r.cycles);
    Obs.observe "eventsim.max_queue" (float_of_int r.max_link_queue);
    Obs.observe "eventsim.link_busy" (float_of_int r.total_link_busy);
    if r.dropped > 0 then Obs.incr ~by:r.dropped "eventsim.dropped";
    if r.unreachable > 0 then Obs.incr ~by:r.unreachable "eventsim.unreachable"
  end;
  r

type packet = {
  id : int;  (* injection index, keys the deterministic drop decision *)
  route : link_state array;
  bytes : int;
  mutable hop : int;  (* index of the link currently being crossed *)
  mutable remaining : int;  (* bytes left on the current link *)
  mutable attempts : int;  (* failed attempts on the current hop *)
  mutable enq : int;  (* cycle of the last enqueue *)
  mutable injected : int;  (* cycle of the first injection; -1 before it *)
  mutable finished : int;  (* delivery or permanent-drop cycle *)
  mutable waited : int;  (* cycles spent queued behind busy links *)
  mutable resent : int;  (* retransmissions *)
}

(* One directed link.  [queue] and [current] drive store-and-forward
   mode, [circuits] wormhole mode; the counters feed both modes'
   telemetry. *)
and link_state = {
  rate : int;  (* bytes per cycle, after degradation *)
  queue : packet Queue.t;
  mutable current : packet option;
  mutable circuits : int list;
      (* done-times of the circuits granted on the link, latest (and
         so largest) first *)
  mutable busy : int;
  mutable carried : int;
  mutable packets : int;
  mutable peak : int;
  mutable area : int;
  mutable stalled : int;
}

let max_events = 20_000

(* The bounded event log of a run: [push] keeps the first
   [max_events] events, [events] returns them in push order. *)
let event_log () =
  let log = ref [] (* reverse *) and count = ref 0 in
  let push ev_cycle ev_kind ev_msg =
    if !count < max_events then begin
      log := { Obs.Telemetry.ev_cycle; ev_kind; ev_msg } :: !log;
      incr count
    end
  in
  (push, fun () -> List.rev !log)

(* A replayed message: its endpoints, size and route ([[]] when local
   or unreachable). *)
type flight = { src : int; dst : int; bytes : int; path : (int * int) list }

(* A message's record with no cycles of its own: injected and
   finished at 0, or at -1 when [Unreachable]. *)
let record f ~hops outcome =
  let at = if outcome = Obs.Telemetry.Unreachable then -1 else 0 in
  {
    Obs.Telemetry.msg_src = f.src;
    msg_dst = f.dst;
    msg_bytes = f.bytes;
    injected_at = at;
    finished_at = at;
    hops;
    queue_wait = 0;
    retransmits = 0;
    outcome;
  }

(* A routed message's record, with the cycles it lived through. *)
let timed f ~injected_at ~finished_at ~hops ~queue_wait ~retransmits outcome =
  { (record f ~hops outcome) with
    Obs.Telemetry.injected_at; finished_at; queue_wait; retransmits }

(* The replayed traffic split, each part in replay order: local
   messages (delivered at time 0), routable remote messages with their
   routes, and unreachable ones (dead endpoint, or every path
   severed). *)
let split faults topo (traffic : Message.traffic) =
  let locals = ref [] and routable = ref [] and unreachable = ref [] in
  traffic (fun src dst bytes ->
      let f = { src; dst; bytes; path = [] } in
      if src = dst then locals := f :: !locals
      else if Fault.is_none faults then
        routable := { f with path = Topology.route topo ~src ~dst } :: !routable
      else
        match Fault.route faults topo ~src ~dst with
        | Some path -> routable := { f with path } :: !routable
        | None ->
          unreachable := f :: !unreachable;
          if Obs.enabled () then Obs.incr "fault.injected");
  (List.rev !locals, List.rev !routable, List.rev !unreachable)

(* The telemetry run of a simulation: local records first, then the
   routed ones, then the unreachable ones.  A link shows once a packet
   queued for it or crossed it, or once it stalled. *)
let telemetry ~sim faults topo ~total_cycles ~locals ~routed ~unreachable ~links
    ~events =
  {
    Obs.Telemetry.sim;
    label = "";
    dims = (if Topology.is_grid topo then Topology.dims topo else [||]);
    torus = Topology.is_torus topo;
    topo_spec = (if Topology.is_grid topo then "" else Topology.to_string topo);
    total_cycles;
    fault_spec = Fault.label faults;
    messages =
      List.map (fun f -> record f ~hops:0 Obs.Telemetry.Delivered) locals
      @ routed
      @ List.map (fun f -> record f ~hops:0 Obs.Telemetry.Unreachable) unreachable;
    links =
      List.sort compare
        (Hashtbl.fold
           (fun (link_src, link_dst) s acc ->
             if s.peak > 0 || s.packets > 0 || s.stalled > 0 then
               {
                 Obs.Telemetry.link_src;
                 link_dst;
                 busy = s.busy;
                 carried = s.carried;
                 packets = s.packets;
                 peak_queue = s.peak;
                 queue_area = s.area;
                 stalled = s.stalled;
               }
               :: acc
             else acc)
           links []);
    events;
  }

(* Link speed in bytes per cycle: the base wire rate scaled by the
   link's capacity (1 on every grid link, [arity^level] up a fat tree,
   [hosts] on a dragonfly global link), then degraded by faults. *)
let effective_rate topo faults params l =
  let base = params.bytes_per_cycle * Topology.link_capacity topo l in
  if Fault.is_none faults then base
  else
    max 1
      (int_of_float
         (Float.round (float_of_int base *. Fault.bandwidth_factor faults l)))

(* Every link of the routable messages' paths, created in replay
   order: store-and-forward steps the links in this table's iteration
   order, which must not change while it runs. *)
let link_table faults topo params routable =
  let links : (int * int, link_state) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun { path; _ } ->
      List.iter
        (fun l ->
          if not (Hashtbl.mem links l) then
            Hashtbl.replace links l
              {
                rate = effective_rate topo faults params l;
                queue = Queue.create ();
                current = None;
                circuits = [];
                busy = 0;
                carried = 0;
                packets = 0;
                peak = 0;
                area = 0;
                stalled = 0;
              })
        path)
    routable;
  links

(* Sum of busy cycles and deepest queue over every link. *)
let link_totals links =
  Hashtbl.fold (fun _ s (busy, peak) -> (busy + s.busy, max peak s.peak)) links (0, 0)

(* Wormhole: a greedy circuit scheduler.  Messages are considered in
   injection order; each starts as soon as it is injected and every
   link of its path is free, holding the whole path for
   [hops + ceil(bytes / bw)] cycles.  Per-packet drops are not
   modelled here (a circuit either holds or it does not); dead nodes,
   severed links and degraded bandwidth are. *)
let run_wormhole faults topo params (locals, routable, unreachable) =
  let links = link_table faults topo params routable in
  let push_event, events = event_log () in
  let next_inject : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let finish = ref 0 in
  let max_wait = ref 0 in
  let routed =
    List.mapi
      (fun id ({ src; bytes; path; _ } as f) ->
        let inject =
          Option.value ~default:params.startup_cycles
            (Hashtbl.find_opt next_inject src)
        in
        Hashtbl.replace next_inject src (inject + params.startup_cycles);
        let path = List.map (Hashtbl.find links) path in
        let path_free =
          List.fold_left
            (fun acc s -> match s.circuits with [] -> acc | d :: _ -> max acc d)
            0 path
        in
        (* queue depth: how many earlier circuits are still pending on
           a link when this message wants it *)
        List.iter
          (fun s ->
            let d = List.length (List.filter (fun d -> d > inject) s.circuits) in
            if d > s.peak then s.peak <- d)
          path;
        let start = max inject path_free in
        let bw =
          match path with
          | [] -> params.bytes_per_cycle
          | _ -> List.fold_left (fun acc s -> min acc s.rate) max_int path
        in
        let duration = List.length path + ((max 1 bytes + bw - 1) / bw) in
        let done_at = start + duration in
        List.iter
          (fun s ->
            s.circuits <- done_at :: s.circuits;
            s.busy <- s.busy + duration;
            s.carried <- s.carried + max 1 bytes;
            s.packets <- s.packets + 1)
          path;
        if start - inject > !max_wait then max_wait := start - inject;
        if done_at > !finish then finish := done_at;
        push_event inject "inject" id;
        push_event done_at "deliver" id;
        timed f ~injected_at:inject ~finished_at:done_at ~hops:(List.length path)
          ~queue_wait:(start - inject) ~retransmits:0 Obs.Telemetry.Delivered)
      routable
  in
  let total_link_busy, max_link_queue = link_totals links in
  {
    cycles = !finish;
    delivered = List.length routable + List.length locals;
    dropped = 0;
    retransmits = 0;
    unreachable = List.length unreachable;
    max_link_queue;
    max_inject_wait = !max_wait;
    total_link_busy;
    telemetry =
      telemetry ~sim:"eventsim-wormhole" faults topo ~total_cycles:!finish ~locals
        ~routed ~unreachable ~links ~events:(events ());
  }

let run ?(faults = Fault.none) topo params volume =
  if params.bytes_per_cycle <= 0 || params.startup_cycles < 0 then
    invalid_arg "Eventsim.run: bad parameters";
  let flights = split faults topo (Netsim.replay volume) in
  if params.mode = Wormhole then record_result (run_wormhole faults topo params flights)
  else begin
  let faults_active = not (Fault.is_none faults) in
  let locals, routable, unreachable = flights in
  let links = link_table faults topo params routable in
  (* injection schedule: per sender, messages go out one every
     startup_cycles, in replay order *)
  let next_inject : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let injections =
    List.mapi
      (fun id { src; bytes; path; _ } ->
        (* the k-th message of a sender reaches the wire after k+1
           software start-ups *)
        let t =
          Option.value ~default:params.startup_cycles (Hashtbl.find_opt next_inject src)
        in
        Hashtbl.replace next_inject src (t + params.startup_cycles);
        ( t,
          {
            id;
            route = Array.of_list (List.map (Hashtbl.find links) path);
            bytes = max 1 bytes;
            hop = 0;
            remaining = max 1 bytes;
            attempts = 0;
            enq = 0;
            injected = -1;
            finished = -1;
            waited = 0;
            resent = 0;
          } ))
      routable
  in
  let delivered = ref 0 in
  let dropped = ref 0 in
  let retransmits = ref 0 in
  let total = List.length routable in
  let pending = ref injections in
  let cycle = ref 0 in
  let push_event, events = event_log () in
  let enqueue p =
    let s = p.route.(p.hop) in
    Queue.push p s.queue;
    p.enq <- !cycle;
    let depth = Queue.length s.queue in
    if depth > s.peak then s.peak <- depth
  in
  (* Per-cycle observation, every 64 cycles: each link's queue depth
     adds to its occupancy integral and, when Obs records, the link
     state feeds the eventsim.* point series. *)
  let take_sample () =
    let busy_links = ref 0 and max_q = ref 0 and in_flight = ref 0 in
    Hashtbl.iter
      (fun _ s ->
        (match s.current with Some _ -> incr busy_links | None -> ());
        let d = Queue.length s.queue in
        in_flight := !in_flight + d + (match s.current with Some _ -> 1 | None -> 0);
        if d > !max_q then max_q := d;
        s.area <- s.area + d)
      links;
    if Obs.enabled () then begin
      let ts = float_of_int !cycle in
      Obs.point "eventsim.in_flight" ~ts (float_of_int !in_flight);
      Obs.point "eventsim.busy_links" ~ts (float_of_int !busy_links);
      Obs.point "eventsim.max_queue_now" ~ts (float_of_int !max_q);
      if total > 0 then
        Obs.point "eventsim.delivered_fraction" ~ts
          (float_of_int !delivered /. float_of_int total)
    end
  in
  let cap = 50_000_000 in
  while !delivered + !dropped < total do
    if !cycle > cap then
      raise
        (Deadlock { cycles = !cycle; in_flight = total - !delivered - !dropped });
    if !cycle mod 64 = 0 then take_sample ();
    (* inject the packets whose time has come (first sends and
       backed-off retransmissions alike) *)
    let now, later = List.partition (fun (t, _) -> t <= !cycle) !pending in
    pending := later;
    List.iter
      (fun (_, p) ->
        if p.injected < 0 then begin
          p.injected <- !cycle;
          push_event !cycle "inject" p.id
        end;
        enqueue p)
      now;
    (* each link transmits *)
    Hashtbl.iter
      (fun lkey s ->
        if faults_active && Fault.link_down faults ~cycle:!cycle lkey then
          s.stalled <- s.stalled + 1
        else begin
          (match s.current with
          | None ->
            if not (Queue.is_empty s.queue) then begin
              let p = Queue.pop s.queue in
              p.waited <- p.waited + (!cycle - p.enq);
              s.current <- Some p
            end
          | Some _ -> ());
          match s.current with
          | None -> ()
          | Some p ->
            s.busy <- s.busy + 1;
            p.remaining <- p.remaining - s.rate;
            if p.remaining <= 0 then begin
              s.current <- None;
              s.carried <- s.carried + p.bytes;
              if
                faults_active
                && Fault.drops faults ~packet:p.id ~hop:p.hop ~attempt:p.attempts
                     ~link:lkey
              then begin
                (* lost on the wire: the sender's ACK timer fires and
                   it retransmits on this hop with exponential
                   backoff, up to the retry cap *)
                p.attempts <- p.attempts + 1;
                if Obs.enabled () then Obs.incr "fault.injected";
                if p.attempts > Fault.max_retries then begin
                  incr dropped;
                  p.finished <- !cycle;
                  push_event !cycle "drop" p.id
                end
                else begin
                  incr retransmits;
                  p.resent <- p.resent + 1;
                  let wait = Fault.backoff ~attempt:p.attempts in
                  if Obs.enabled () then begin
                    Obs.incr "eventsim.retransmits";
                    Obs.observe "eventsim.backoff_ms" (float_of_int wait)
                  end;
                  push_event !cycle "retransmit" p.id;
                  p.remaining <- p.bytes;
                  pending := (!cycle + wait, p) :: !pending
                end
              end
              else begin
                p.hop <- p.hop + 1;
                p.attempts <- 0;
                s.packets <- s.packets + 1;
                if p.hop >= Array.length p.route then begin
                  incr delivered;
                  p.finished <- !cycle;
                  push_event !cycle "deliver" p.id
                end
                else begin
                  push_event !cycle "hop" p.id;
                  p.remaining <- p.bytes;
                  enqueue p
                end
              end
            end
        end)
      links;
    incr cycle
  done;
  let routed =
    List.map2
      (fun f (_, p) ->
        timed f ~injected_at:p.injected ~finished_at:p.finished ~hops:p.hop
          ~queue_wait:p.waited ~retransmits:p.resent
          (if p.hop = Array.length p.route then Obs.Telemetry.Delivered
           else Obs.Telemetry.Dropped))
      routable injections
  in
  let total_link_busy, max_link_queue = link_totals links in
  record_result
    {
      cycles = !cycle;
      delivered = !delivered + List.length locals;
      dropped = !dropped;
      retransmits = !retransmits;
      unreachable = List.length unreachable;
      max_link_queue;
      max_inject_wait = 0;
      total_link_busy;
      telemetry =
        telemetry ~sim:"eventsim" faults topo ~total_cycles:!cycle ~locals ~routed
          ~unreachable ~links ~events:(events ());
    }
  end
