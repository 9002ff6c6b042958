open Linalg
open Nestir

type result = {
  nest : Loopnest.t;
  m : int;
  schedule : Schedule.t;
  alloc : Alignment.Alloc.t;
  plan : Commplan.t;
  rotations : (int * Mat.t) list;
  step1_alloc : Alignment.Alloc.t;
  step1_plan : Commplan.t;
}

(* A partial macro-communication that is not yet parallel to the axes,
   together with the component to rotate. *)
let misaligned_direction alloc (entry : Commplan.entry) =
  let open Macrocomm in
  let directions =
    match entry.Commplan.classification with
    | Commplan.Broadcast i
      when i.Broadcast.classification = Broadcast.Partial
           && not i.Broadcast.axis_aligned ->
      Some i.Broadcast.directions
    | Commplan.Scatter i | Commplan.Gather i ->
      if i.Spread.classification = Spread.Partial && not i.Spread.axis_aligned then
        Some i.Spread.directions
      else None
    | _ -> None
  in
  match directions with
  | None -> None
  | Some d ->
    let comp =
      Alignment.Alloc.component alloc (Alignment.Access_graph.Stmt_v entry.Commplan.stmt)
    in
    (match Axis.aligning_matrix d with
    | Some v when not (Mat.is_identity v) -> Some (comp, v)
    | _ -> None)

let run ?(m = 2) ?schedule ?(axis_align = true) nest =
  Obs.with_span "pipeline.run"
    ~args:[ ("nest", nest.Loopnest.nest_name); ("m", string_of_int m) ]
  @@ fun () ->
  let schedule =
    match schedule with Some s -> s | None -> Schedule.all_parallel nest
  in
  let step1_alloc = Obs.with_span "pipeline.alloc" (fun () -> Alignment.Alloc.run ~m nest) in
  let step1_plan =
    Obs.with_span "pipeline.classify" (fun () -> Commplan.build step1_alloc schedule)
  in
  let alloc = ref step1_alloc in
  let rotations = ref [] in
  let plan = ref step1_plan in
  (* Greedy axis alignment: rotate one component at a time and
     re-classify, at most once per entry. *)
  ( Obs.with_span "pipeline.rotate" @@ fun () ->
  let budget = ref (List.length !plan) in
  let continue = ref axis_align in
  while !continue && !budget > 0 do
    decr budget;
    match List.find_map (misaligned_direction !alloc) !plan with
    | None -> continue := false
    | Some (comp, v) ->
      alloc := Alignment.Alloc.apply_unimodular !alloc ~component:comp v;
      rotations := (comp, v) :: !rotations;
      Obs.incr "rotations_applied";
      plan := Commplan.build !alloc schedule
  done );
  {
    nest;
    m;
    schedule;
    alloc = !alloc;
    plan = !plan;
    rotations = List.rev !rotations;
    step1_alloc;
    step1_plan;
  }

let summary r = Commplan.summarize r.plan

let non_local r =
  let s = summary r in
  s.Commplan.total - s.Commplan.local - s.Commplan.translations

let pp ppf r =
  Format.fprintf ppf "=== %s (m = %d) ===@\n" r.nest.Loopnest.nest_name r.m;
  Format.fprintf ppf "%a" Alignment.Alloc.pp r.alloc;
  List.iter
    (fun (c, v) ->
      Format.fprintf ppf "  rotation on component %d: %a@\n" c Mat.pp_flat v)
    r.rotations;
  Format.fprintf ppf "communication plan:@\n%a" Commplan.pp r.plan;
  Format.fprintf ppf "summary: %a@\n" Commplan.pp_summary (summary r)
