(* Residual traffic as int arrays from placement to price: the layout
   fold is one table per axis (with [remap], a process placement from
   the mapping layer, composed after it), each message's endpoints
   come from integer flow arithmetic, and the messages stream into the
   Netsim core. *)

let time ?coalesce ?faults ?remap model ~layout ~vgrid ~flow ?offset ?(bytes = 8) () =
  let axes = Layout.axes layout ~vgrid ~topo:model.Machine.Models.topo in
  Machine.Models.price ?coalesce ?faults model
    (Machine.Patterns.traffic ?offset ~vgrid ~axes ?remap ~bytes [ flow ])

let decomposed_time ?faults ?remap model ~layout ~vgrid ~factors ?(bytes = 8) () =
  if bytes < 0 then invalid_arg "Message.make: negative size";
  let axes = Layout.axes layout ~vgrid ~topo:model.Machine.Models.topo in
  List.iter (Machine.Patterns.check_flow ~vgrid) factors;
  (* The rightmost factor moves first: T = f1 f2 ... fn applied to v is
     realised as v -> fn v -> f(n-1) fn v -> ...; positions live on the
     virtual torus.  Phase [p] moves the item that started on cell [j]
     from where the earlier phases left it; phases list their items
     alternately first to last and last to first. *)
  let phases = Array.of_list (List.rev factors) in
  let n = Machine.Patterns.cells vgrid in
  let d = Array.length vgrid in
  let phase p =
    let v = Array.make d 0 and w = Array.make d 0 in
    Machine.Models.price ?faults model (fun emit ->
        for k = 0 to n - 1 do
          Machine.Patterns.coords ~vgrid (if p mod 2 = 0 then k else n - 1 - k) v;
          for q = 0 to p - 1 do
            Machine.Patterns.move ~vgrid phases.(q) v w;
            Array.blit w 0 v 0 d
          done;
          Machine.Patterns.move ~vgrid phases.(p) v w;
          emit
            (Machine.Patterns.rank ~axes ?remap v)
            (Machine.Patterns.rank ~axes ?remap w)
            bytes
        done)
  in
  let stats = ref [] in
  for p = 0 to Array.length phases - 1 do
    stats := phase p :: !stats
  done;
  List.rev !stats

let total_time stats =
  List.fold_left (fun acc (s : Machine.Netsim.stats) -> acc +. s.Machine.Netsim.time) 0.0 stats
