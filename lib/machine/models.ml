type hw_collective = { coll_alpha : float; coll_beta : float }

type t = {
  name : string;
  topo : Topology.t;
  net : Netsim.params;
  hw : hw_collective option;
}

(* Times in microsecond-ish units; the ratios are what matters.
   Calibrated so the CM-5 shows the paper's Table 1 ordering:
   reduction ~ broadcast << translation << general, with roughly an
   order of magnitude between broadcast and a general communication
   (§3.1). *)
let cm5 () =
  {
    name = "cm5";
    topo = Topology.mesh2d ~p:8 ~q:4;
    net = { Netsim.alpha = 10.0; beta = 0.15; hop = 0.5 };
    hw = Some { coll_alpha = 6.0; coll_beta = 0.02 };
  }

let paragon ?(p = 8) ?(q = 4) () =
  {
    name = "paragon";
    topo = Topology.mesh2d ~p ~q;
    net = { Netsim.alpha = 10.0; beta = 0.1; hop = 0.4 };
    hw = None;
  }

let t3d () =
  {
    name = "t3d";
    topo = Topology.torus3d ~p:4 ~q:4 ~r:2;
    net = { Netsim.alpha = 3.0; beta = 0.05; hop = 0.15 };
    hw = None;
  }

(* A model for an arbitrary [--topo] spec: Paragon-flavoured wire
   parameters (the ratios are what matters) with the collective
   capability hint consumed here — a fat tree, like the CM-5 whose
   stand-in it is, runs broadcasts and reductions on its control
   network. *)
let of_topo topo =
  {
    name = Topology.to_string topo;
    topo;
    net = { Netsim.alpha = 10.0; beta = 0.1; hop = 0.4 };
    hw =
      (if (Topology.capability topo).Topology.hw_collectives then
         Some { coll_alpha = 6.0; coll_beta = 0.02 }
       else None);
  }

let of_calibration ~name topo params =
  let fit = Calibrate.fit_model topo params in
  {
    name;
    topo;
    net =
      {
        Netsim.alpha = fit.Calibrate.alpha;
        beta = fit.Calibrate.beta;
        hop = 1.0 (* one router cycle per hop *);
      };
    hw = None;
  }

let broadcast_time t ~bytes =
  match t.hw with
  | Some hw -> hw.coll_alpha +. (hw.coll_beta *. float_of_int bytes) +. 1.0
  | None -> Collective.broadcast t.topo t.net ~bytes

let reduce_time t ~bytes =
  match t.hw with
  | Some hw -> hw.coll_alpha +. (hw.coll_beta *. float_of_int bytes)
  | None -> Collective.reduce t.topo t.net ~bytes

let scatter_time t ~bytes =
  match t.hw with
  | Some hw ->
    (* the control network pipelines the items; the root still pushes
       P payloads *)
    hw.coll_alpha
    +. (hw.coll_beta *. float_of_int (bytes * Topology.size t.topo))
  | None -> Collective.scatter t.topo t.net ~bytes

let gather_time t ~bytes = scatter_time t ~bytes

let price ?coalesce ?faults t traffic =
  Netsim.price ?faults t.topo t.net (Netsim.volume ?coalesce t.topo traffic)

(* One message per rank [r] to [dst r] unless that is [r] itself,
   ranks taken from last to first. *)
let per_rank t ~bytes dst emit =
  if bytes < 0 then invalid_arg "Message.make: negative size";
  for r = Topology.size t.topo - 1 downto 0 do
    if dst r <> r then emit r (dst r) bytes
  done

let shift_time t ~bytes =
  (* shift by one along axis 0: every processor sends to its
     neighbour; conflict-free *)
  let topo = t.topo in
  let d0 = Topology.dim topo 0 in
  let stride = Topology.size topo / d0 in
  let dst r = if r / stride = d0 - 1 then r - ((d0 - 1) * stride) else r + stride in
  (price t (per_rank t ~bytes dst)).Netsim.time

(* The shift reads only the topology and the wire parameters, so each
   (topology, wire parameters, bytes) is priced once per process, in a
   registry shared by every domain.  Both are plain data, equal
   whenever their specs are, so they key the table as they are.  The
   registry lock only finds or adds a slot.  A slot is priced under its
   own lock, so no domain waits on a shift it did not ask for, and each
   slot is priced exactly once: the [netsim.*] counters do not depend
   on how many domains asked.  A pricing that raises leaves its slot
   empty. *)
type shift = { lock : Mutex.t; mutable time : float option }

let shifts : (Topology.t * Netsim.params * int, shift) Hashtbl.t = Hashtbl.create 8
let shifts_lock = Mutex.create ()

let translation_time t ~bytes =
  let key = (t.topo, t.net, bytes) in
  let slot =
    Mutex.protect shifts_lock (fun () ->
        match Hashtbl.find_opt shifts key with
        | Some slot -> slot
        | None ->
          let slot = { lock = Mutex.create (); time = None } in
          Hashtbl.replace shifts key slot;
          slot)
  in
  Mutex.protect slot.lock (fun () ->
      match slot.time with
      | Some time -> time
      | None ->
        let time = shift_time t ~bytes in
        slot.time <- Some time;
        time)

let general_time t ~bytes =
  (* the rank-reversal permutation: every message crosses the centre,
     and the generic runtime path cannot vectorize it *)
  let n = Topology.size t.topo in
  (price ~coalesce:false t (per_rank t ~bytes (fun r -> n - 1 - r))).Netsim.time
