(* Mapping onto a 3-D grid (Cray T3D style).

   The paper's decomposition theory is worked out for 2x2 data-flow
   matrices and "obviously extends to higher dimensions" — machines
   like the Cray T3D expose a 3-D torus (m = 3).  This example builds
   a depth-3 nest whose residual data-flow matrix is 3x3 with
   determinant 1; the optimizer factors it into transvections
   (elementary communications parallel to one axis of the 3-D grid)
   and we price the phases on the T3D model with both simulators.

   Run with: dune exec examples/t3d_mapping.exe *)

open Linalg
open Nestir

let g = Mat.of_lists [ [ 1; 1; 0 ]; [ 0; 1; 1 ]; [ 0; 0; 1 ] ]

let nest =
  let open Loopnest in
  make ~name:"t3d_demo"
    ~arrays:[ { array_name = "a"; dim = 3 } ]
    ~stmts:
      [
        {
          stmt_name = "S";
          depth = 3;
          extent = [| 8; 8; 8 |];
          accesses =
            [
              access ~array_name:"a" ~label:"Fw" Write (Affine.identity 3);
              access ~array_name:"a" ~label:"Fg" Read (Affine.linear g);
            ];
        };
      ]

let () =
  Format.printf "== nest ==@.%a@." Loopnest.pp nest;
  let r = Resopt.Pipeline.run ~m:3 nest in
  Format.printf "%a@." Resopt.Pipeline.pp r;

  (* the residual flow decomposes into transvections *)
  List.iter
    (fun (e : Resopt.Commplan.entry) ->
      match e.Resopt.Commplan.classification with
      | Resopt.Commplan.Decomposed { flow; factors } ->
        Format.printf "flow %a factors into %d transvections@." Mat.pp_flat flow
          (List.length factors);
        List.iter (fun f -> Format.printf "  %a@." Mat.pp_flat f) factors;
        (* price on the T3D: each factor is an axis-parallel
           communication *)
        let t3d = Machine.Models.t3d () in
        let topo = t3d.Machine.Models.topo in
        let vgrid = [| 16; 16; 8 |] in
        let layout = Distrib.Layout.all_cyclic 3 in
        let axes = Distrib.Layout.axes layout ~vgrid ~topo in
        let traffic flow = Machine.Patterns.traffic ~vgrid ~axes ~bytes:8 [ flow ] in
        let events ~coalesce flow =
          (Machine.Eventsim.run topo Machine.Eventsim.default_params
             (Machine.Netsim.volume ~coalesce topo (traffic flow)))
            .Machine.Eventsim.cycles
        in
        let direct_closed =
          (Machine.Models.price ~coalesce:false t3d (traffic flow)).Machine.Netsim.time
        in
        let phase_closed =
          List.fold_left
            (fun acc f -> acc +. (Machine.Models.price t3d (traffic f)).Machine.Netsim.time)
            0.0 factors
        in
        Format.printf "closed-form model: direct %.0f vs phases %.0f (%.1fx)@."
          direct_closed phase_closed (direct_closed /. phase_closed);
        let direct_ev = events ~coalesce:false flow in
        let phase_ev =
          List.fold_left (fun acc f -> acc + events ~coalesce:true f) 0 factors
        in
        Format.printf "event simulation:  direct %d vs phases %d (%.1fx)@."
          direct_ev phase_ev
          (float_of_int direct_ev /. float_of_int phase_ev)
      | _ -> ())
    r.Resopt.Pipeline.plan
