type t = {
  vgrid : int array;
  volume : Bounds.volume;
  time : Bounds.time;
}

let default_bytes = 64

let of_traffic ?mapping net (r : Residual.t) =
  let volume = Residual.bound_volume r in
  (* no traffic, nothing to place: skip the placement search *)
  let placement =
    match mapping with
    | Some spec when volume.Bounds.cells > 0 && r.Residual.flows <> [] ->
      Some (Residual.placement spec r)
    | _ -> None
  in
  let time = Residual.transfer_time r placement net in
  if Obs.enabled () then begin
    Obs.incr "bounds.computed";
    Obs.incr ~by:volume.Bounds.bound_bytes "bounds.bound_bytes";
    Obs.incr ~by:volume.Bounds.achieved_bytes "bounds.achieved_bytes";
    Obs.observe "bounds.efficiency" time.Bounds.efficiency;
    Obs.set_gauge "bounds.last_efficiency" time.Bounds.efficiency
  end;
  { vgrid = r.Residual.vgrid; volume; time }

let of_plan ?mapping (model : Machine.Models.t) plan =
  Option.map (of_traffic ?mapping model.Machine.Models.net) (Residual.of_plan model plan)

let of_workload ?(bytes = default_bytes) ?mapping ~m (model : Machine.Models.t) w =
  Option.map
    (of_traffic ?mapping model.Machine.Models.net)
    (Residual.on_model ~bytes model (Residual.flows_of_workload ~m w))

let pp_panel ppf t =
  let v = t.volume and tm = t.time in
  Format.fprintf ppf "  vgrid %s  procs %d  cap %d  flows %d  rank(F-I) %d@\n"
    (String.concat "x" (Array.to_list (Array.map string_of_int t.vgrid)))
    v.Bounds.nprocs v.Bounds.cap v.Bounds.flows v.Bounds.flow_rank;
  Format.fprintf ppf
    "  volume bound   %8d B    achieved %8d B    per-proc >= %d B@\n"
    v.Bounds.bound_bytes v.Bounds.achieved_bytes v.Bounds.per_proc_bound;
  Format.fprintf ppf
    "  orbits %d (longest %d of %d cells)@\n"
    v.Bounds.orbits v.Bounds.longest_orbit v.Bounds.cells;
  let a = tm.Bounds.achieved in
  Format.fprintf ppf
    "  time bound: serial >= %-6d (got %d)   link load >= %-6d (got %d)   hops >= %d (got %d)@\n"
    tm.Bounds.serial_lb
    (max a.Machine.Netsim.max_sender a.Machine.Netsim.max_receiver)
    tm.Bounds.link_lb
    a.Machine.Netsim.max_link_load tm.Bounds.hops_lb
    a.Machine.Netsim.max_hops;
  Format.fprintf ppf "  transfer time  %10.1f  bound %10.1f@\n"
    a.Machine.Netsim.time tm.Bounds.bound_time;
  Format.fprintf ppf "  efficiency %.3f %s %.1f%%@\n" tm.Bounds.efficiency
    (Bounds.bar tm.Bounds.efficiency)
    (100.0 *. tm.Bounds.efficiency)

let pp ppf t =
  if t.volume.Bounds.flows = 0 then
    Format.fprintf ppf "  no residual traffic: efficiency n/a@\n"
  else pp_panel ppf t
