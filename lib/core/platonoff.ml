open Linalg
open Nestir

type result = {
  nest : Loopnest.t;
  m : int;
  schedule : Schedule.t;
  reserved : (string * string) list;
  alloc : Alignment.Alloc.t;
  plan : Commplan.t;
}

let label_of (a : Loopnest.access) =
  if a.Loopnest.label = "" then a.Loopnest.array_name else a.Loopnest.label

(* Broadcast directions of a read access in the initial program:
   basis of ker theta ∩ ker F (None when trivial). *)
let broadcast_basis sched (s : Loopnest.stmt) (a : Loopnest.access) =
  if a.Loopnest.kind <> Loopnest.Read then None
  else begin
    let theta = Schedule.theta sched s.Loopnest.stmt_name in
    let stacked = Mat.vcat theta a.Loopnest.map.Affine.f in
    match Ratmat.kernel_of_mat stacked with
    | [] -> None
    | cols -> Some (List.fold_left Mat.hcat (List.hd cols) (List.tl cols))
  end

let run ?(m = 2) ~schedule nest =
  (* Step 1: locate the broadcasts of the initial code. *)
  let reserved = ref [] in
  let stmt_dirs : (string * Mat.t) list ref = ref [] in
  List.iter
    (fun ((s : Loopnest.stmt), (a : Loopnest.access)) ->
      match broadcast_basis schedule s a with
      | Some basis ->
        reserved := (s.Loopnest.stmt_name, label_of a) :: !reserved;
        stmt_dirs := (s.Loopnest.stmt_name, basis) :: !stmt_dirs
      | None -> ())
    (Loopnest.all_accesses nest);
  let reserved = List.rev !reserved in
  (* Step 2: remove the reserved accesses from the alignment problem
     and demand that the mapping keeps the broadcasts visible
     (M_S v <> 0). *)
  let nest' =
    {
      nest with
      Loopnest.stmts =
        List.map
          (fun (s : Loopnest.stmt) ->
            {
              s with
              Loopnest.accesses =
                List.filter
                  (fun a ->
                    not (List.mem (s.Loopnest.stmt_name, label_of a) reserved))
                  s.Loopnest.accesses;
            })
          nest.Loopnest.stmts;
    }
  in
  (* Step 3a: try to preserve TOTAL broadcasts (the image of the
     broadcast directions spans the whole grid); when no mapping
     materializes, relax to the partial condition 3b (the directions
     merely stay visible). *)
  let constraint_with ~total v (mv : Ratmat.t) =
    match v with
    | Alignment.Access_graph.Stmt_v name ->
      List.for_all
        (fun (n, basis) ->
          n <> name
          ||
          let image = Ratmat.mul mv (Ratmat.of_mat basis) in
          if total then Ratmat.rank image = m else not (Ratmat.is_zero image))
        !stmt_dirs
    | Alignment.Access_graph.Array_v _ -> true
  in
  let alloc =
    match Alignment.Alloc.run ~vertex_constraint:(constraint_with ~total:true) ~m nest' with
    | alloc -> alloc
    | exception Failure _ ->
      Alignment.Alloc.run ~vertex_constraint:(constraint_with ~total:false) ~m nest'
  in
  let plan = Commplan.build ~nest alloc schedule in
  { nest; m; schedule; reserved; alloc; plan }

let summary r = Commplan.summarize r.plan

let non_local r =
  let s = summary r in
  s.Commplan.total - s.Commplan.local - s.Commplan.translations

let pp ppf r =
  Format.fprintf ppf "=== Platonoff baseline on %s (m = %d) ===@\n"
    r.nest.Loopnest.nest_name r.m;
  Format.fprintf ppf "reserved as macro-communications:";
  List.iter (fun (s, l) -> Format.fprintf ppf " %s/%s" s l) r.reserved;
  Format.fprintf ppf "@\n%a" Alignment.Alloc.pp r.alloc;
  Format.fprintf ppf "communication plan:@\n%a" Commplan.pp r.plan;
  Format.fprintf ppf "summary: %a@\n" Commplan.pp_summary (summary r)
