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
