open Nestir

type result = {
  nest : Loopnest.t;
  m : int;
  alloc : Alignment.Alloc.t;
  plan : Commplan.t;
}

let downgrade (e : Commplan.entry) =
  match e.Commplan.classification with
  | Commplan.Local | Commplan.Translation _ | Commplan.General _ -> e
  | Commplan.Reduction _ | Commplan.Broadcast _ | Commplan.Scatter _
  | Commplan.Gather _ ->
    { e with Commplan.classification = Commplan.General None }
  | Commplan.Decomposed { flow; _ } ->
    { e with Commplan.classification = Commplan.General (Some flow) }

let of_pipeline (r : Pipeline.result) =
  {
    nest = r.Pipeline.nest;
    m = r.Pipeline.m;
    alloc = r.Pipeline.step1_alloc;
    plan = List.map downgrade r.Pipeline.step1_plan;
  }

let run ?m ~schedule nest =
  of_pipeline (Pipeline.run ?m ~schedule ~axis_align:false nest)

let summary r = Commplan.summarize r.plan
