let messages ~vgrid ~topo ~from_layout ~to_layout ~bytes =
  let msgs = ref [] in
  Machine.Patterns.iter_box vgrid (fun v ->
      let src = Layout.place from_layout ~vgrid ~topo v in
      let dst = Layout.place to_layout ~vgrid ~topo v in
      if src <> dst then msgs := Machine.Message.make ~src ~dst ~bytes :: !msgs);
  !msgs

let time model ~vgrid ~from_layout ~to_layout ?(bytes = 8) () =
  let topo = model.Machine.Models.topo in
  Machine.Models.price model
    (Machine.Message.of_list (messages ~vgrid ~topo ~from_layout ~to_layout ~bytes))

let break_even model ~vgrid ~from_layout ~to_layout ~flow =
  let bytes = 8 in
  let redist = (time model ~vgrid ~from_layout ~to_layout ~bytes ()).Machine.Netsim.time in
  let comm layout =
    (Foldsim.time model ~layout ~vgrid ~flow ~bytes ()).Machine.Netsim.time
  in
  let t_from = comm from_layout and t_to = comm to_layout in
  if t_to >= t_from then None
  else
    (* redist + n t_to < n t_from  =>  n > redist / (t_from - t_to) *)
    Some (1 + int_of_float (redist /. (t_from -. t_to)))
