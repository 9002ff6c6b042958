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

type t = {
  topo : Machine.Topology.t;
  vgrid : int array;
  bytes : int;
  flows : Mat.t list;
  axes : int array array Lazy.t;
  volumes : Machine.Netsim.volume list Lazy.t;
  mutable placements : (Mapping.spec * Mapping.t) list;
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
  { topo; vgrid; bytes; flows; axes; volumes; placements = [] }

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
