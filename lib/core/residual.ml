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
}

let make ~vgrid ~bytes topo flows =
  {
    topo;
    vgrid;
    bytes;
    flows;
    axes = lazy (Distrib.Layout.axes (Distrib.Layout.all_cyclic 2) ~vgrid ~topo);
  }

let on_model ~bytes (model : Machine.Models.t) flows =
  let topo = model.Machine.Models.topo in
  if Machine.Topology.ndims topo = 2 then
    let vgrid =
      [| 4 * Machine.Topology.dim topo 0; 4 * Machine.Topology.dim topo 1 |]
    in
    Some (make ~vgrid ~bytes topo flows)
  else None

let ranks t = Machine.Patterns.ranks ~axes:(Lazy.force t.axes) ~vgrid:t.vgrid

let traffic ?placement t =
  Machine.Patterns.traffic ~vgrid:t.vgrid ~axes:(Lazy.force t.axes) ?remap:placement
    ~bytes:t.bytes t.flows

let volume_graph t =
  Machine.Volgraph.of_traffic ~hosts:(Machine.Topology.size t.topo) (traffic t)

let placement spec t = Mapping.compute spec t.topo (volume_graph t)
