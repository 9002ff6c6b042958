open Linalg

type entry_cost = {
  stmt : string;
  label : string;
  class_name : string;
  cost : float;
}

type breakdown = { entries : entry_cost list; total : float }

(* Every plan is priced at 64-byte items. *)
let bytes = 64

(* [fold] is the plan's residual fold ({!Residual.of_plan}) with the
   placement composed after it, if any; [None] on models without a
   2-D grid.  A 2x2 flow's direct path is priced on the fold's count
   of its messages, uncoalesced, or read off the fold's stats of an
   earlier price, retimed. *)
let general_cost ~faults ~fold model flow =
  match (flow, fold) with
  | Some flow, Some (r, remap) when Mat.rows flow = 2 && Mat.cols flow = 2 ->
    (Residual.flow_price r ~faults remap model.Machine.Models.net flow).Machine.Netsim.time
  | _ ->
    (* unknown pattern: the generic runtime path serializes one
       message per peer out of the hottest node — what a macro-
       communication primitive or a decomposition replaces *)
    let n = Machine.Topology.size model.Machine.Models.topo in
    let net = model.Machine.Models.net in
    Machine.Fault.uniform_slowdown faults
    *. ((float_of_int (n - 1)
        *. (net.Machine.Netsim.alpha +. (net.Machine.Netsim.beta *. float_of_int bytes))
        )
       +. (net.Machine.Netsim.hop
          *. float_of_int (Machine.Topology.diameter model.Machine.Models.topo)))

(* The runtime keeps whichever implementation is cheaper; a
   decomposition never has to be used when the direct path wins.  So
   the direct path is priced first, and the phases stop as soon as
   their running total reaches it: they cannot win from there, and
   [min] returns the same float as after the whole walk. *)
let decomposed_cost ~faults ~fold model ~flow factors =
  let direct = general_cost ~faults ~fold model (Some flow) in
  let phases =
    match fold with
    | Some ((r : Residual.t), remap)
      when List.for_all (fun f -> Mat.rows f = 2 && Mat.cols f = 2) factors ->
      (* elementary phases, grouped layout matched to the largest
         off-diagonal coefficient *)
      let k =
        List.fold_left
          (fun acc f -> max acc (max (abs (Mat.get f 0 1)) (abs (Mat.get f 1 0))))
          1 factors
      in
      let layout = [| Distrib.Layout.Grouped k; Distrib.Layout.Grouped k |] in
      Residual.decomposed_total r ~faults remap model ~layout ~factors ~limit:direct
    | _ ->
      (* fall back: one conflict-free axis communication per factor *)
      Machine.Fault.uniform_slowdown faults
      *. float_of_int (List.length factors)
      *. Machine.Models.translation_time model ~bytes
  in
  min phases direct

(* Collectives and translations are priced closed-form; under faults
   they degrade by the machine-wide slowdown (expected retransmissions
   over the global flaky probability / remaining bandwidth). *)
let entry_cost ~faults ~fold model (e : Commplan.entry) =
  let degrade c = Machine.Fault.uniform_slowdown faults *. c in
  match e.Commplan.classification with
  | Commplan.Local -> 0.0
  | Commplan.Translation _ -> degrade (Machine.Models.translation_time model ~bytes)
  | Commplan.Reduction _ -> degrade (Machine.Models.reduce_time model ~bytes)
  | Commplan.Broadcast info ->
    degrade
      (match info.Macrocomm.Broadcast.classification with
      | Macrocomm.Broadcast.Total | Macrocomm.Broadcast.Hidden ->
        Machine.Models.broadcast_time model ~bytes
      | Macrocomm.Broadcast.Partial -> (
        match model.Machine.Models.hw with
        | Some _ -> Machine.Models.broadcast_time model ~bytes
        | None ->
          Machine.Collective.partial_broadcast model.Machine.Models.topo
            model.Machine.Models.net ~axis:0 ~bytes))
  | Commplan.Scatter _ -> degrade (Machine.Models.scatter_time model ~bytes)
  | Commplan.Gather _ -> degrade (Machine.Models.gather_time model ~bytes)
  | Commplan.Decomposed { factors; flow } ->
    decomposed_cost ~faults ~fold model ~flow factors
  | Commplan.General flow -> general_cost ~faults ~fold model flow

let of_fold ~faults ~mapping model fold plan =
  (* the placement a mapping spec picks for the plan's residual
     traffic, composed after the cyclic fold; none without a 2-D
     grid or 2x2 flows — pricing is untouched *)
  let fold =
    Option.map
      (fun (r : Residual.t) ->
        match mapping with
        | Some spec when r.Residual.flows <> [] -> (r, Some (Residual.placement spec r))
        | _ -> (r, None))
      fold
  in
  let entries =
    List.map
      (fun (e : Commplan.entry) ->
        {
          stmt = e.Commplan.stmt;
          label = e.Commplan.label;
          class_name = Commplan.classification_name e.Commplan.classification;
          cost = entry_cost ~faults ~fold model e;
        })
      plan
  in
  { entries; total = List.fold_left (fun acc e -> acc +. e.cost) 0.0 entries }

let of_plan ?(faults = Machine.Fault.none) ?mapping model plan =
  of_fold ~faults ~mapping model (Residual.of_plan model plan) plan
