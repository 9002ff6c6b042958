open Linalg
open Nestir

type breakdown = {
  timesteps : int;
  compute : float;
  hoisted_comm : float;
  per_step_comm : float;
  total : float;
}

(* Messages carry 8-byte items; every instance computes in one time
   unit. *)
let bytes = 8

let estimate ~(model : Machine.Models.t) ~(nest : Loopnest.t)
    ~(schedule : Schedule.t) ~(alloc : Alignment.Alloc.t) ~(plan : Commplan.t) =
  let m =
    match alloc.Alignment.Alloc.allocs with
    | (_, ma) :: _ -> Mat.rows ma
    | [] -> 2
  in
  let topo, fold = Distexec.machine m in
  let alloc_opt v =
    try Some (Alignment.Alloc.alloc_of alloc v) with Not_found -> None
  in
  let vectorizable =
    List.filter_map
      (fun (e : Commplan.entry) ->
        if e.Commplan.vectorizable then Some (e.Commplan.stmt, e.Commplan.label)
        else None)
      plan
  in
  let label_of (a : Loopnest.access) =
    if a.Loopnest.label = "" then a.Loopnest.array_name else a.Loopnest.label
  in
  (* per-timestep message batches + hoisted batch + instance counts *)
  let step_msgs : (int list, Machine.Message.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let step_instances : (int list, int ref) Hashtbl.t = Hashtbl.create 64 in
  let hoisted = ref [] in
  List.iter
    (fun (s : Loopnest.stmt) ->
      let theta = Schedule.theta schedule s.Loopnest.stmt_name in
      let ms = alloc_opt (Alignment.Access_graph.Stmt_v s.Loopnest.stmt_name) in
      let capped = Array.map (fun e -> min e 6) s.Loopnest.extent in
      Machine.Patterns.iter_box capped (fun i ->
          let t = Array.to_list (Mat.mul_vec theta i) in
          (match Hashtbl.find_opt step_instances t with
          | Some r -> incr r
          | None -> Hashtbl.replace step_instances t (ref 1));
          match ms with
          | None -> ()
          | Some ms ->
            let computer = fold (Mat.mul_vec ms i) in
            List.iter
              (fun (a : Loopnest.access) ->
                match
                  alloc_opt (Alignment.Access_graph.Array_v a.Loopnest.array_name)
                with
                | None -> ()
                | Some mx ->
                  let owner = fold (Mat.mul_vec mx (Affine.apply a.Loopnest.map i)) in
                  if owner <> computer then begin
                    let msg = Machine.Message.make ~src:owner ~dst:computer ~bytes in
                    if List.mem (s.Loopnest.stmt_name, label_of a) vectorizable then
                      hoisted := msg :: !hoisted
                    else begin
                      match Hashtbl.find_opt step_msgs t with
                      | Some r -> r := msg :: !r
                      | None -> Hashtbl.replace step_msgs t (ref [ msg ])
                    end
                  end)
              s.Loopnest.accesses)
    )
    nest.Loopnest.stmts;
  let nprocs = float_of_int (Machine.Topology.size topo) in
  let compute =
    Hashtbl.fold
      (fun _ count acc ->
        acc +. ceil (float_of_int !count /. nprocs))
      step_instances 0.0
  in
  let comm msgs =
    (Machine.Models.price model (Machine.Message.of_list msgs)).Machine.Netsim.time
  in
  let hoisted_comm = comm !hoisted in
  let per_step_comm =
    Hashtbl.fold (fun _ msgs acc -> acc +. comm !msgs) step_msgs 0.0
  in
  {
    timesteps = Hashtbl.length step_instances;
    compute;
    hoisted_comm;
    per_step_comm;
    total = compute +. hoisted_comm +. per_step_comm;
  }

let of_pipeline ~model (r : Pipeline.result) =
  estimate ~model ~nest:r.Pipeline.nest ~schedule:r.Pipeline.schedule
    ~alloc:r.Pipeline.alloc ~plan:r.Pipeline.plan

let of_platonoff ~model (r : Platonoff.result) =
  estimate ~model ~nest:r.Platonoff.nest ~schedule:r.Platonoff.schedule
    ~alloc:r.Platonoff.alloc ~plan:r.Platonoff.plan

let pp ppf b =
  Format.fprintf ppf
    "%d timesteps: compute %.1f + hoisted comm %.1f + per-step comm %.1f = %.1f"
    b.timesteps b.compute b.hoisted_comm b.per_step_comm b.total
