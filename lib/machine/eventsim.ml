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
  route : (int * int) array;
  bytes : int;
  mutable hop : int;  (* index of the link currently being crossed *)
  mutable remaining : int;  (* bytes left on the current link *)
  mutable attempts : int;  (* failed attempts on the current hop *)
  mutable enq : int;  (* cycle of the last enqueue, for queue-wait telemetry *)
}

type link_state = {
  queue : packet Queue.t;
  mutable current : packet option;
  rate : int;  (* bytes per cycle, after degradation *)
}

(* ------------------------------------------------------------------ *)
(* Telemetry plumbing (only touched when Obs.Telemetry is enabled)     *)
(* ------------------------------------------------------------------ *)

type tlink = {
  mutable t_busy : int;
  mutable t_carried : int;
  mutable t_packets : int;
  mutable t_peak : int;
  mutable t_area : int;
  mutable t_stall : int;
}

let tstat tbl l =
  match Hashtbl.find_opt tbl l with
  | Some t -> t
  | None ->
    let t =
      { t_busy = 0; t_carried = 0; t_packets = 0; t_peak = 0; t_area = 0; t_stall = 0 }
    in
    Hashtbl.replace tbl l t;
    t

let tele_links tbl =
  List.map
    (fun ((a, b), t) ->
      {
        Obs.Telemetry.link_src = a;
        link_dst = b;
        busy = t.t_busy;
        carried = t.t_carried;
        packets = t.t_packets;
        peak_queue = t.t_peak;
        queue_area = t.t_area;
        stalled = t.t_stall;
      })
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []))

let max_events = 20_000

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
   routed ones, then the unreachable ones. *)
let record_tele ~sim ~label ~faults ~total_cycles topo ~locals ~routed ~unreachable
    ~links ~events =
  Obs.Telemetry.record_run
    {
      Obs.Telemetry.sim;
      label;
      dims = (if Topology.is_grid topo then Topology.dims topo else [||]);
      torus = Topology.is_torus topo;
      topo_spec = (if Topology.is_grid topo then "" else Topology.to_string topo);
      total_cycles;
      fault_spec = Fault.label faults;
      messages =
        List.map (fun f -> record f ~hops:0 Obs.Telemetry.Delivered) locals
        @ routed
        @ List.map (fun f -> record f ~hops:0 Obs.Telemetry.Unreachable) unreachable;
      links = tele_links links;
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

(* Wormhole: a greedy circuit scheduler.  Messages are considered in
   injection order; each starts as soon as it is injected and every
   link of its path is free, holding the whole path for
   [hops + ceil(bytes / bw)] cycles.  Per-packet drops are not
   modelled here (a circuit either holds or it does not); dead nodes,
   severed links and degraded bandwidth are. *)
let run_wormhole ~label faults topo params (locals, routable, unreachable_msgs) =
  let unreachable = List.length unreachable_msgs in
  let tele = Obs.Telemetry.enabled () in
  let tstats : (int * int, tlink) Hashtbl.t = Hashtbl.create 64 in
  let t_msgs = ref [] (* reverse *) in
  let t_events = ref [] (* reverse *) in
  let t_ev_count = ref 0 in
  let push_event cycle kind id =
    if !t_ev_count < max_events then begin
      t_events :=
        { Obs.Telemetry.ev_cycle = cycle; ev_kind = kind; ev_msg = id }
        :: !t_events;
      incr t_ev_count
    end
  in
  let next_inject : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let link_free : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  (* done-times per link, to measure true queue depth: how many
     earlier circuits are still pending on a link when a new message
     wants it *)
  let link_pending : (int * int, int list) Hashtbl.t = Hashtbl.create 64 in
  let finish = ref 0 in
  let busy = ref 0 in
  let max_queue = ref 0 in
  let max_wait = ref 0 in
  let idx = ref 0 in
  List.iter
    (fun ({ src; bytes; path; _ } as f) ->
      let id = !idx in
      incr idx;
      let inject =
        Option.value ~default:params.startup_cycles
          (Hashtbl.find_opt next_inject src)
      in
      Hashtbl.replace next_inject src (inject + params.startup_cycles);
      let path_free =
        List.fold_left
          (fun acc l -> max acc (Option.value ~default:0 (Hashtbl.find_opt link_free l)))
          0 path
      in
      let depth =
        List.fold_left
          (fun acc l ->
            let pend = Option.value ~default:[] (Hashtbl.find_opt link_pending l) in
            let d = List.length (List.filter (fun d -> d > inject) pend) in
            if tele then begin
              let t = tstat tstats l in
              if d > t.t_peak then t.t_peak <- d
            end;
            max acc d)
          0 path
      in
      if depth > !max_queue then max_queue := depth;
      let start = max inject path_free in
      let bw =
        match path with
        | [] -> params.bytes_per_cycle
        | _ ->
          List.fold_left
            (fun acc l -> min acc (effective_rate topo faults params l))
            max_int path
      in
      let duration =
        List.length path + ((max 1 bytes + bw - 1) / bw)
      in
      let done_at = start + duration in
      List.iter
        (fun l ->
          Hashtbl.replace link_free l done_at;
          let pend = Option.value ~default:[] (Hashtbl.find_opt link_pending l) in
          Hashtbl.replace link_pending l (done_at :: pend))
        path;
      busy := !busy + (duration * List.length path);
      if start - inject > !max_wait then max_wait := start - inject;
      if done_at > !finish then finish := done_at;
      if tele then begin
        t_msgs :=
          timed f ~injected_at:inject ~finished_at:done_at ~hops:(List.length path)
            ~queue_wait:(start - inject) ~retransmits:0 Obs.Telemetry.Delivered
          :: !t_msgs;
        List.iter
          (fun l ->
            let t = tstat tstats l in
            t.t_busy <- t.t_busy + duration;
            t.t_carried <- t.t_carried + max 1 bytes;
            t.t_packets <- t.t_packets + 1)
          path;
        push_event inject "inject" id;
        push_event done_at "deliver" id
      end)
    routable;
  if tele then
    record_tele ~sim:"eventsim-wormhole" ~label ~faults ~total_cycles:!finish topo
      ~locals ~routed:(List.rev !t_msgs) ~unreachable:unreachable_msgs
      ~links:tstats ~events:(List.rev !t_events);
  {
    cycles = !finish;
    delivered = List.length routable + List.length locals;
    dropped = 0;
    retransmits = 0;
    unreachable;
    max_link_queue = !max_queue;
    max_inject_wait = !max_wait;
    total_link_busy = !busy;
  }

let run ?(faults = Fault.none) ?(label = "") topo params volume =
  if params.bytes_per_cycle <= 0 || params.startup_cycles < 0 then
    invalid_arg "Eventsim.run: bad parameters";
  let flights = split faults topo (Netsim.replay volume) in
  if params.mode = Wormhole then
    record_result (run_wormhole ~label faults topo params flights)
  else begin
  let faults_active = not (Fault.is_none faults) in
  let locals, routable, unreachable_msgs = flights in
  let unreachable = List.length unreachable_msgs in
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
            route = Array.of_list path;
            bytes = max 1 bytes;
            hop = 0;
            remaining = max 1 bytes;
            attempts = 0;
            enq = 0;
          } ))
      routable
  in
  let links : (int * int, link_state) Hashtbl.t = Hashtbl.create 64 in
  (* create every link up front: the table must not grow while it is
     being iterated *)
  List.iter
    (fun (_, p) ->
      Array.iter
        (fun l ->
          if not (Hashtbl.mem links l) then
            Hashtbl.replace links l
              {
                queue = Queue.create ();
                current = None;
                rate = effective_rate topo faults params l;
              })
        p.route)
    injections;
  let link l = Hashtbl.find links l in
  let delivered = ref 0 in
  let dropped = ref 0 in
  let retransmits = ref 0 in
  let total = List.length routable in
  let max_queue = ref 0 in
  let busy = ref 0 in
  let pending = ref injections in
  let cycle = ref 0 in
  (* Per-message lifecycle state, only filled when telemetry is on. *)
  let tele = Obs.Telemetry.enabled () in
  let tsize = if tele then total else 0 in
  let m_inject = Array.make tsize (-1) in
  let m_finish = Array.make tsize (-1) in
  let m_hops = Array.make tsize 0 in
  let m_qwait = Array.make tsize 0 in
  let m_retrans = Array.make tsize 0 in
  let m_outcome = Array.make tsize Obs.Telemetry.Dropped in
  let tstats : (int * int, tlink) Hashtbl.t = Hashtbl.create 64 in
  let t_events = ref [] (* reverse *) in
  let t_ev_count = ref 0 in
  let push_event kind id =
    if !t_ev_count < max_events then begin
      t_events :=
        { Obs.Telemetry.ev_cycle = !cycle; ev_kind = kind; ev_msg = id }
        :: !t_events;
      incr t_ev_count
    end
  in
  let enqueue p =
    let l = link p.route.(p.hop) in
    Queue.push p l.queue;
    let depth = Queue.length l.queue in
    if depth > !max_queue then max_queue := depth;
    if tele then begin
      p.enq <- !cycle;
      let t = tstat tstats p.route.(p.hop) in
      if depth > t.t_peak then t.t_peak <- depth
    end
  in
  (* Per-cycle observation: queue depths and link occupancy, sampled
     every 64 cycles.  Costs one test per cycle when neither Obs
     recording nor telemetry is active. *)
  let observing = Obs.enabled () || tele in
  let take_sample () =
    let busy_links = ref 0 and max_q = ref 0 and in_flight = ref 0 in
    Hashtbl.iter
      (fun lkey s ->
        (match s.current with Some _ -> incr busy_links | None -> ());
        let d = Queue.length s.queue in
        in_flight := !in_flight + d + (match s.current with Some _ -> 1 | None -> 0);
        if d > !max_q then max_q := d;
        if tele && d > 0 then begin
          let t = tstat tstats lkey in
          t.t_area <- t.t_area + d
        end)
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
    if observing && !cycle mod 64 = 0 then take_sample ();
    (* inject the packets whose time has come (first sends and
       backed-off retransmissions alike) *)
    let now, later = List.partition (fun (t, _) -> t <= !cycle) !pending in
    pending := later;
    List.iter
      (fun (_, p) ->
        if tele && m_inject.(p.id) < 0 then begin
          m_inject.(p.id) <- !cycle;
          push_event "inject" p.id
        end;
        enqueue p)
      now;
    (* each link transmits *)
    Hashtbl.iter
      (fun lkey s ->
        if faults_active && Fault.link_down faults ~cycle:!cycle lkey then begin
          if tele then begin
            let t = tstat tstats lkey in
            t.t_stall <- t.t_stall + 1
          end
        end
        else begin
          (match s.current with
          | None ->
            if not (Queue.is_empty s.queue) then begin
              let p = Queue.pop s.queue in
              if tele then m_qwait.(p.id) <- m_qwait.(p.id) + (!cycle - p.enq);
              s.current <- Some p
            end
          | Some _ -> ());
          match s.current with
          | None -> ()
          | Some p ->
            incr busy;
            if tele then begin
              let t = tstat tstats lkey in
              t.t_busy <- t.t_busy + 1
            end;
            p.remaining <- p.remaining - s.rate;
            if p.remaining <= 0 then begin
              s.current <- None;
              if tele then begin
                let t = tstat tstats lkey in
                t.t_carried <- t.t_carried + p.bytes
              end;
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
                  if tele then begin
                    m_outcome.(p.id) <- Obs.Telemetry.Dropped;
                    m_finish.(p.id) <- !cycle;
                    push_event "drop" p.id
                  end
                end
                else begin
                  incr retransmits;
                  let wait = Fault.backoff ~attempt:p.attempts in
                  if Obs.enabled () then begin
                    Obs.incr "eventsim.retransmits";
                    Obs.observe "eventsim.backoff_ms" (float_of_int wait)
                  end;
                  if tele then begin
                    m_retrans.(p.id) <- m_retrans.(p.id) + 1;
                    push_event "retransmit" p.id
                  end;
                  p.remaining <- p.bytes;
                  pending := (!cycle + wait, p) :: !pending
                end
              end
              else begin
                p.hop <- p.hop + 1;
                p.attempts <- 0;
                if tele then begin
                  m_hops.(p.id) <- m_hops.(p.id) + 1;
                  let t = tstat tstats lkey in
                  t.t_packets <- t.t_packets + 1
                end;
                if p.hop >= Array.length p.route then begin
                  incr delivered;
                  if tele then begin
                    m_outcome.(p.id) <- Obs.Telemetry.Delivered;
                    m_finish.(p.id) <- !cycle;
                    push_event "deliver" p.id
                  end
                end
                else begin
                  if tele then push_event "hop" p.id;
                  p.remaining <- p.bytes;
                  enqueue p
                end
              end
            end
        end)
      links;
    incr cycle
  done;
  if tele then
    record_tele ~sim:"eventsim" ~label ~faults ~total_cycles:!cycle topo ~locals
      ~routed:
        (List.mapi
           (fun id f ->
             timed f ~injected_at:m_inject.(id) ~finished_at:m_finish.(id)
               ~hops:m_hops.(id) ~queue_wait:m_qwait.(id) ~retransmits:m_retrans.(id)
               m_outcome.(id))
           routable)
      ~unreachable:unreachable_msgs ~links:tstats ~events:(List.rev !t_events);
  record_result
    {
      cycles = !cycle;
      delivered = !delivered + List.length locals;
      dropped = !dropped;
      retransmits = !retransmits;
      unreachable;
      max_link_queue = !max_queue;
      max_inject_wait = 0;
      total_link_busy = !busy;
    }
  end
