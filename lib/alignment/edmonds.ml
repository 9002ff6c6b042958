type edge = { src : int; dst : int; weight : int; id : int }

(* Internal edges carry the list of original edges to emit when the
   edge is selected (contracted edges expand to several originals). *)
type gedge = { gs : int; gd : int; gw : int; gid : int; pay : edge list }

let better a b =
  (* maximal weight, ties towards the smallest id for determinism *)
  match b with
  | None -> true
  | Some b -> a.gw > b.gw || (a.gw = b.gw && a.gid < b.gid)

let rec solve n (edges : gedge list) : edge list =
  let best = Array.make n None in
  List.iter
    (fun e ->
      if e.gw > 0 && e.gs <> e.gd then
        if better e best.(e.gd) then best.(e.gd) <- Some e)
    edges;
  (* Look for a cycle among the selected edges. *)
  let find_cycle () =
    let stamp = Array.make n (-1) in
    let exception Found of int list in
    try
      for start = 0 to n - 1 do
        if stamp.(start) = -1 then begin
          let rec walk v path =
            if stamp.(v) = start then begin
              (* v was visited during this very walk: cycle found *)
              let rec take acc = function
                | [] -> acc
                | u :: rest -> if u = v then v :: acc else take (u :: acc) rest
              in
              raise (Found (take [] path))
            end
            else if stamp.(v) = -1 then begin
              stamp.(v) <- start;
              match best.(v) with
              | None -> ()
              | Some e -> walk e.gs (v :: path)
            end
          in
          walk start []
        end
      done;
      None
    with Found c -> Some c
  in
  match find_cycle () with
  | None ->
    Array.fold_left
      (fun acc b -> match b with None -> acc | Some e -> e.pay @ acc)
      [] best
  | Some cycle ->
    let in_cycle = Array.make n false in
    List.iter (fun v -> in_cycle.(v) <- true) cycle;
    let cycle_best v = match best.(v) with Some e -> e | None -> assert false in
    let wmin =
      List.fold_left (fun acc v -> min acc (cycle_best v).gw) max_int cycle
    in
    let min_vertex =
      (* the vertex whose incoming cycle edge has minimal weight *)
      List.fold_left
        (fun acc v ->
          match acc with
          | None -> Some v
          | Some u -> if (cycle_best v).gw < (cycle_best u).gw then Some v else Some u)
        None cycle
      |> Option.get
    in
    let pays_except skip =
      List.concat_map (fun v -> if v = skip then [] else (cycle_best v).pay) cycle
    in
    let c = n in
    let fresh = ref 0 in
    let next_id () =
      incr fresh;
      1_000_000 + !fresh
    in
    let new_edges =
      List.filter_map
        (fun e ->
          let su = in_cycle.(e.gs) and dv = in_cycle.(e.gd) in
          if su && dv then None
          else if dv then
            (* entering the cycle at e.gd: selecting it drops the cycle
               edge into e.gd *)
            Some
              {
                gs = e.gs;
                gd = c;
                gw = e.gw - (cycle_best e.gd).gw + wmin;
                gid = next_id ();
                pay = e.pay @ pays_except e.gd;
              }
          else if su then Some { e with gs = c }
          else Some e)
        edges
    in
    let sub = solve (n + 1) new_edges in
    (* If no edge of the sub-solution enters the contracted vertex, the
       cycle contributes all its edges but the lightest one.  Detecting
       "entered" from the expanded result: the entering payload already
       contains the kept cycle edges, so compare against the cycle edge
       set. *)
    let cycle_edge_ids =
      List.concat_map (fun v -> List.map (fun e -> e.id) (cycle_best v).pay) cycle
    in
    let sub_ids = List.map (fun e -> e.id) sub in
    let entered =
      (* some cycle-vertex payload is missing => an entering edge
         replaced it *)
      List.exists (fun id -> List.mem id sub_ids) cycle_edge_ids
    in
    if entered then sub else sub @ pays_except min_vertex

let maximum_branching ~n edges =
  let gedges =
    List.map (fun e -> { gs = e.src; gd = e.dst; gw = e.weight; gid = e.id; pay = [ e ] }) edges
  in
  solve n gedges
