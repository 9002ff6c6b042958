(* The flows a plan leaves on the wire after the macro-communications
   are peeled off — the 2x2 data-flow matrices of its general and
   decomposed entries — and the one fold of those flows into traffic
   on a machine, shared by pricing, bounds, serve, the CLI and the
   bench tables. *)

open Linalg

let flows_of_plan plan =
  List.filter_map
    (fun (e : Commplan.entry) ->
      match e.Commplan.classification with
      | Commplan.General (Some f) | Commplan.Decomposed { flow = f; _ }
        when Mat.rows f = 2 && Mat.cols f = 2 ->
        Some f
      | _ -> None)
    plan

let flows_of_workload ~m (w : Workloads.t) =
  flows_of_plan
    (Pipeline.run ~m ~schedule:w.Workloads.schedule w.Workloads.nest).Pipeline.plan

(* A decomposition's first phases, in order, as far as some price
   needed them: their unplaced, fault-free volumes on the fold, or
   their stats under one (placement, faults). *)
type 'a phases = {
  layout : Distrib.Layout.t;
  factors : Mat.t list;
  mutable walked : 'a list;
}

(* What a fold has priced under one (placement, faults): each flow's
   stats, each decomposition's phase stats as far as they were priced,
   and the transfer-time bound.  Stats are kept as priced; a reader
   retimes them to its own model's parameters. *)
type prices = {
  faults : Machine.Fault.t;
  remap : Mapping.t option;
  mutable flow_stats : (Mat.t * Machine.Netsim.stats) list;
  phase_stats : Machine.Netsim.stats phases list ref;
  mutable bound : Bounds.time option;
}

type priced = {
  mutable bound_volume : Bounds.volume option;
  phase_volumes : Machine.Netsim.volume phases list ref;
  mutable by_placement : prices list;
}

type t = {
  topo : Machine.Topology.t;
  vgrid : int array;
  bytes : int;
  flows : Mat.t list;
  axes : int array array Lazy.t;
  volumes : Machine.Netsim.volume list Lazy.t;
  mutable placements : (Mapping.spec * Mapping.t) list;
  priced : priced;
}

let make ~vgrid ~bytes topo flows =
  let axes = lazy (Distrib.Layout.axes (Distrib.Layout.all_cyclic 2) ~vgrid ~topo) in
  let volumes =
    lazy
      (List.map
         (fun flow ->
           Machine.Netsim.volume ~coalesce:false topo
             (Machine.Patterns.traffic ~vgrid ~axes:(Lazy.force axes) ~bytes [ flow ]))
         flows)
  in
  {
    topo;
    vgrid;
    bytes;
    flows;
    axes;
    volumes;
    placements = [];
    priced = { bound_volume = None; phase_volumes = ref []; by_placement = [] };
  }

let on_model ~bytes (model : Machine.Models.t) flows =
  let topo = model.Machine.Models.topo in
  if Machine.Topology.ndims topo = 2 then
    let vgrid =
      [| 4 * Machine.Topology.dim topo 0; 4 * Machine.Topology.dim topo 1 |]
    in
    Some (make ~vgrid ~bytes topo flows)
  else None

(* Every plan is priced at 64-byte items. *)
let of_plan model plan = on_model ~bytes:64 model (flows_of_plan plan)

(* A fold reads only the topology and the flows, so models that share
   a topology share it. *)
let shared () =
  let folds = ref [] in
  fun (model : Machine.Models.t) plan ->
    let topo = model.Machine.Models.topo and flows = flows_of_plan plan in
    match
      List.find_opt
        (fun (t, f, _) -> t = topo && List.equal Mat.equal f flows)
        !folds
    with
    | Some (_, _, fold) -> fold
    | None ->
      let fold = on_model ~bytes:64 model flows in
      folds := (topo, flows, fold) :: !folds;
      fold

(* A bounds row's cell→rank table is too large for the minor heap (512
   words on an 8x4 machine), and a fresh one per sweep cell grows the
   major heap faster than the collector reclaims it, so it is borrowed
   per domain. *)
let rank_tables = Machine.Volgraph.lender ~make:(fun n -> Array.make n 0) ~size:Array.length

let with_ranks t f =
  Machine.Volgraph.borrow rank_tables (Machine.Patterns.cells t.vgrid) (fun table ->
      Machine.Patterns.fill_ranks ~axes:(Lazy.force t.axes) ~vgrid:t.vgrid table;
      f table)

let traffic ?placement t =
  Machine.Patterns.traffic ~vgrid:t.vgrid ~axes:(Lazy.force t.axes) ?remap:placement
    ~bytes:t.bytes t.flows

let placed placement v =
  match placement with None -> v | Some perm -> Machine.Netsim.relabel perm v

let flow_volume t placement flow =
  let rec find flows volumes =
    match (flows, volumes) with
    | f :: flows, v :: volumes -> if Mat.equal f flow then placed placement v else find flows volumes
    | _ -> invalid_arg "Residual.flow_volume: not a flow of this traffic"
  in
  find t.flows (Lazy.force t.volumes)

let volume t placement =
  Machine.Netsim.coalesce t.topo (List.map (placed placement) (Lazy.force t.volumes))

let volume_graph t =
  let streams = List.map Machine.Netsim.pairs (Lazy.force t.volumes) in
  Machine.Volgraph.of_traffic ~hosts:(Machine.Topology.size t.topo) (fun emit ->
      List.iter (fun pairs -> pairs emit) streams)

let placement spec t =
  match List.assoc_opt spec t.placements with
  | Some perm -> perm
  | None ->
    let perm = Mapping.compute spec t.topo (volume_graph t) in
    t.placements <- (spec, perm) :: t.placements;
    perm

(* What this fold has priced under (placement, faults), made on first
   use. *)
let prices t ~faults remap =
  match
    List.find_opt
      (fun p -> p.faults = faults && p.remap = remap)
      t.priced.by_placement
  with
  | Some p -> p
  | None ->
    let p = { faults; remap; flow_stats = []; phase_stats = ref []; bound = None } in
    t.priced.by_placement <- p :: t.priced.by_placement;
    p

let flow_price t ~faults remap net flow =
  let p = prices t ~faults remap in
  match List.find_opt (fun (f, _) -> Mat.equal f flow) p.flow_stats with
  | Some (_, s) -> Machine.Netsim.retime net s
  | None ->
    let s = Machine.Netsim.price ~faults t.topo net (flow_volume t remap flow) in
    p.flow_stats <- (flow, s) :: p.flow_stats;
    s

(* The phases kept for (layout, factors) in [kept], added on first
   use. *)
let phases_of kept ~layout ~factors =
  match
    List.find_opt
      (fun ph -> ph.layout = layout && List.equal Mat.equal ph.factors factors)
      !kept
  with
  | Some ph -> ph
  | None ->
    let ph = { layout; factors; walked = [] } in
    kept := ph :: !kept;
    ph

(* The running total adds each phase's time in phase order from 0.0
   and stops once it reaches [limit], whether the phase was priced now
   or for an earlier model, and its volume walked now or for an
   earlier (placement, faults). *)
let decomposed_total t ~faults remap (model : Machine.Models.t) ~layout ~factors ~limit =
  let total = ref 0.0 in
  let add (s : Machine.Netsim.stats) =
    total := !total +. s.Machine.Netsim.time;
    !total < limit
  in
  let net = model.Machine.Models.net in
  let p = prices t ~faults remap in
  let ph = phases_of p.phase_stats ~layout ~factors
  and vols = phases_of t.priced.phase_volumes ~layout ~factors in
  (* a phase priced under this (placement, faults), kept for the next
     model *)
  let priced_now v =
    let s = Machine.Netsim.price ~faults t.topo net (placed remap v) in
    ph.walked <- ph.walked @ [ s ];
    add s
  in
  let rec over n = function
    | s :: rest -> if add (Machine.Netsim.retime net s) then over (n + 1) rest
    | [] -> unpriced n (List.filteri (fun i _ -> i >= n) vols.walked)
  and unpriced n = function
    | v :: rest -> if priced_now v then unpriced (n + 1) rest
    | [] ->
      if n < List.length factors then
        Distrib.Foldsim.walk_phases t.topo ~layout ~vgrid:t.vgrid ~factors
          ~bytes:t.bytes ~from:n (fun v ->
            vols.walked <- vols.walked @ [ v ];
            priced_now v)
  in
  over 0 ph.walked;
  !total

let bound_volume t =
  match t.priced.bound_volume with
  | Some v -> v
  | None ->
    let v =
      with_ranks t (fun owner -> Bounds.volume ~vgrid:t.vgrid ~bytes:t.bytes ~owner t.flows)
    in
    t.priced.bound_volume <- Some v;
    v

let transfer_time t remap net =
  let p = prices t ~faults:Machine.Fault.none remap in
  match p.bound with
  | Some b -> Bounds.retime net b
  | None ->
    let b = Bounds.transfer_time t.topo net (volume t remap) in
    p.bound <- Some b;
    b
