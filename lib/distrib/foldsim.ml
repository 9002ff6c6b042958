(* Residual traffic as int arrays from placement to price: the layout
   fold is one table per axis, each message's endpoints come from
   integer flow arithmetic, and the messages stream into the Netsim
   core. *)

let time ?coalesce ?faults model ~layout ~vgrid ~flow ?(bytes = 8) () =
  let axes = Layout.axes layout ~vgrid ~topo:model.Machine.Models.topo in
  Machine.Models.price ?coalesce ?faults model
    (Machine.Patterns.traffic ~vgrid ~axes ~bytes [ flow ])

(* Per-domain buffers of [decomposed_time]: the cell→rank table, the
   cell each item is on, and the phase's successor table. *)
type scratch = { rank : int array; cell : int array; succ : int array }

let buffers =
  Machine.Volgraph.lender
    ~make:(fun n -> { rank = Array.make n 0; cell = Array.make n 0; succ = Array.make n 0 })
    ~size:(fun b -> Array.length b.rank)

(* The one phase loop: phases before [from] only move their items;
   [on_phase] sees each later phase's coalesced volume in order and
   says whether to walk the next one. *)
let walk_phases topo ~layout ~vgrid ~factors ~bytes ~from on_phase =
  if bytes < 0 then invalid_arg "Message.make: negative size";
  let axes = Layout.axes layout ~vgrid ~topo in
  List.iter (Machine.Patterns.check_flow ~vgrid) factors;
  (* The rightmost factor moves first: T = f1 f2 ... fn applied to v is
     realised as v -> fn v -> f(n-1) fn v -> ...; positions live on the
     virtual torus.  Phase [p] moves the item that started on cell [j]
     from where the earlier phases left it, [cell.(j)]; phases list
     their items alternately first to last and last to first. *)
  let phases = Array.of_list (List.rev factors) in
  let n = Machine.Patterns.cells vgrid in
  Machine.Volgraph.borrow buffers n (fun { rank; cell; succ } ->
      Machine.Patterns.fill_ranks ~axes ~vgrid rank;
      for j = 0 to n - 1 do
        cell.(j) <- j
      done;
      let volume p =
        let item emit j =
          let c = cell.(j) in
          emit rank.(c) rank.(succ.(c)) bytes
        in
        Machine.Netsim.volume topo (fun emit ->
            if p mod 2 = 0 then
              for j = 0 to n - 1 do
                item emit j
              done
            else
              for j = n - 1 downto 0 do
                item emit j
              done)
      in
      let rec go p =
        if p < Array.length phases then begin
          Machine.Patterns.fill_successors ~vgrid phases.(p) succ;
          let next = p < from || on_phase (volume p) in
          for j = 0 to n - 1 do
            cell.(j) <- succ.(cell.(j))
          done;
          if next then go (p + 1)
        end
      in
      go 0)

let decomposed_time ?faults (model : Machine.Models.t) ~layout ~vgrid ~factors () =
  let topo = model.Machine.Models.topo in
  let stats = ref [] in
  walk_phases topo ~layout ~vgrid ~factors ~bytes:8 ~from:0 (fun v ->
      stats := Machine.Netsim.price ?faults topo model.Machine.Models.net v :: !stats;
      true);
  List.rev !stats

let total_time stats =
  List.fold_left (fun acc (s : Machine.Netsim.stats) -> acc +. s.Machine.Netsim.time) 0.0 stats
