type row = { m : int; cost : float; non_local : int; parallel_dims : int }

let evaluate nest =
  let model = Machine.Models.paragon () in
  List.filter_map
    (fun m ->
      match Pipeline.run ~m nest with
      | exception Failure _ -> None
      | r ->
        Some
          {
            m;
            cost = (Cost.of_plan model r.Pipeline.plan).Cost.total;
            non_local = Pipeline.non_local r;
            parallel_dims = m;
          })
    [ 1; 2; 3 ]

let best nest =
  match evaluate nest with
  | [] -> failwith "Autodim.best: no grid dimension materializes"
  | rows ->
    let best =
      List.fold_left
        (fun acc r ->
          match acc with
          | None -> Some r
          | Some b ->
            if r.cost < b.cost || (r.cost = b.cost && r.m > b.m) then Some r
            else acc)
        None rows
    in
    (Option.get best).m

let pp ppf rows =
  Format.fprintf ppf "%2s %12s %10s@." "m" "comm cost" "non-local";
  List.iter
    (fun r -> Format.fprintf ppf "%2d %12.1f %10d@." r.m r.cost r.non_local)
    rows
