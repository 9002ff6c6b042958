open Nestir

type t = {
  hoisted : Commplan.entry list;
  per_timestep : Commplan.entry list;
  local : Commplan.entry list;
}

let is_local (e : Commplan.entry) =
  match e.Commplan.classification with Commplan.Local -> true | _ -> false

let of_result (r : Pipeline.result) =
  let hoisted, rest =
    List.partition
      (fun (e : Commplan.entry) -> e.Commplan.vectorizable && not (is_local e))
      r.Pipeline.plan
  in
  let local, per_timestep = List.partition is_local rest in
  { hoisted; per_timestep; local }

(* Number of distinct timesteps of a statement under the schedule. *)
let timesteps (r : Pipeline.result) (s : Loopnest.stmt) =
  let theta = Schedule.theta r.Pipeline.schedule s.Loopnest.stmt_name in
  let seen = Hashtbl.create 64 in
  Machine.Patterns.iter_box s.Loopnest.extent (fun i ->
      Hashtbl.replace seen (Array.to_list (Linalg.Mat.mul_vec theta i)) ());
  max 1 (Hashtbl.length seen)

let message_factor (r : Pipeline.result) =
  let phases = of_result r in
  let nest = r.Pipeline.nest in
  let cost hoisted entries =
    List.fold_left
      (fun acc (e : Commplan.entry) ->
        let s = Loopnest.find_stmt nest e.Commplan.stmt in
        acc + if hoisted then 1 else timesteps r s)
      0 entries
  in
  let without =
    cost false phases.hoisted + cost false phases.per_timestep
  in
  let with_v = cost true phases.hoisted + cost false phases.per_timestep in
  if with_v = 0 then 1.0 else float_of_int without /. float_of_int with_v
