(* A 5-point Jacobi stencil: the friendly case.

   Every access is a translation, so the alignment makes everything
   local up to constant shifts; the remaining traffic is
   nearest-neighbour and the message-vectorization criterion (§3.5)
   holds for every access, so each shift is hoisted out of the loops
   and sent as one big message.  We simulate the four shifts on the
   Paragon model under BLOCK and CYCLIC distributions: BLOCK keeps
   neighbours together and wins — the opposite of the U_k situation of
   Figure 8, which is the point of choosing distributions per
   communication pattern.

   Run with: dune exec examples/stencil_shifts.exe *)

let () =
  let nest = Nestir.Paper_examples.stencil ~n:32 () in
  Format.printf "== stencil ==@.%a@." Nestir.Loopnest.pp nest;

  let r = Resopt.Pipeline.run ~m:2 nest in
  Format.printf "%a@." Resopt.Pipeline.pp r;
  assert (Resopt.Pipeline.non_local r = 0);

  (* every entry is vectorizable *)
  let all_vectorizable =
    List.for_all (fun e -> e.Resopt.Commplan.vectorizable) r.Resopt.Pipeline.plan
  in
  Format.printf "all accesses vectorizable: %b@.@." all_vectorizable;

  let par = Machine.Models.paragon () in
  let vgrid = [| 32; 32 |] in
  List.iter
    (fun (name, layout) ->
      let total = ref 0.0 in
      List.iter
        (fun shift ->
          let place v = Distrib.Layout.place layout ~vgrid ~topo:par.Machine.Models.topo v in
          let msgs =
            Machine.Patterns.translation_messages ~boundary:`Clip ~vgrid ~shift
              ~bytes:8 ~place ()
          in
          let priced = Machine.Models.price par (Machine.Message.of_list msgs) in
          total := !total +. priced.Machine.Netsim.time)
        [ [| 1; 0 |]; [| -1; 0 |]; [| 0; 1 |]; [| 0; -1 |] ];
      Format.printf "four shifts under %-18s: %.1f time units@." name !total)
    [
      ("BLOCK x BLOCK", Distrib.Layout.all_block 2);
      ("CYCLIC x CYCLIC", Distrib.Layout.all_cyclic 2);
    ]
