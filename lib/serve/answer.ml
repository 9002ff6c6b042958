(* The run-command report, rendered to a string.  This code used to
   live in bin/resopt_cli.ml printing to stdout; it moved here verbatim
   (printf -> fprintf) so the server and the CLI share one renderer and
   byte-identity holds by construction. *)

let models () =
  [ Machine.Models.cm5 (); Machine.Models.paragon (); Machine.Models.t3d () ]

(* [--topo SPEC] swaps the machine table for the one requested
   topology; without it the historical three-model table renders
   byte-identically. *)
let models_of = function
  | None -> models ()
  | Some topo -> [ Machine.Models.of_topo topo ]

(* the same comparison Sweep runs per row: does the optimized plan keep
   its lead over the step-1-only baseline once the machine is
   imperfect?  Prints what follows the header's fault model; the
   header is [solve_parts]'s, since that model, seed included, is the
   one piece of an answer that reads the fault seed.  [fold_of] is the
   answer's per-topology folds ({!Resopt.Residual.shared}). *)
let resilience_rows ppf ~models ~fold_of (r : Resopt.Pipeline.result) faults =
  let base = Resopt.Feautrier.of_pipeline r in
  Format.fprintf ppf ":@.";
  Format.fprintf ppf "  %-8s %12s %12s %8s %12s %12s %8s@." "model" "optimized"
    "baseline" "gain" "opt+fault" "base+fault" "gain+f";
  List.iter
    (fun model ->
      let price ?(faults = Machine.Fault.none) plan =
        (Resopt.Cost.of_fold ~faults ~mapping:None model (fold_of model plan) plan)
          .Resopt.Cost.total
      in
      let o = price r.Resopt.Pipeline.plan
      and b = price base.Resopt.Feautrier.plan
      and fo = price ~faults r.Resopt.Pipeline.plan
      and fb = price ~faults base.Resopt.Feautrier.plan in
      let gain num den = if den > 0.0 then num /. den else Float.infinity in
      Format.fprintf ppf "  %-8s %12.1f %12.1f %7.2fx %12.1f %12.1f %7.2fx@."
        model.Machine.Models.name o b (gain b o) fo fb (gain fb fo))
    models

(* the placement the mapping layer picks for the plan's residual
   traffic, per 2-D model: hop-bytes before/after plus the plan price
   before/after (the sweep's gain_map column, one workload) *)
let mapping_block ppf ~models ~fold_of (r : Resopt.Pipeline.result) spec =
  Format.fprintf ppf "@.process mapping (--map %s):@."
    (Mapping.kind_to_string spec.Mapping.kind);
  Format.fprintf ppf "  %-8s %12s %12s %8s %12s %12s %8s@." "model" "hop-bytes"
    "mapped" "gain" "cost" "cost+map" "gain_map";
  List.iter
    (fun model ->
      let plan = r.Resopt.Pipeline.plan in
      match fold_of model plan with
      | None ->
        Format.fprintf ppf "  %-8s %12s@." model.Machine.Models.name
          "(no 2-D grid)"
      | Some fold ->
        (* one fold per topology: the hop-bytes, both prices and the
           placement they share *)
        let topo = model.Machine.Models.topo in
        let vol = Resopt.Residual.volume_graph fold in
        let n = Machine.Topology.size topo in
        let perm = Resopt.Residual.placement spec fold in
        let hb_id = Mapping.hop_bytes topo vol (Mapping.identity n) in
        let hb = Mapping.hop_bytes topo vol perm in
        let price mapping =
          (Resopt.Cost.of_fold ~faults:Machine.Fault.none ~mapping model (Some fold) plan)
            .Resopt.Cost.total
        in
        let cost = price None in
        let mapped = price (Some spec) in
        let gain num den = if den > 0.0 then num /. den else 1.0 in
        Format.fprintf ppf "  %-8s %12d %12d %7.2fx %12.1f %12.1f %7.2fx@."
          model.Machine.Models.name hb_id hb
          (gain (float_of_int hb_id) (float_of_int hb))
          cost mapped (gain cost mapped))
    models

type solved =
  | Unseeded of string
  | Seeded of { head : string; specs : Machine.Fault.spec list; tail : string }

(* Render the report in pieces around the resilience header's fault
   model: flushing the formatter at each cut puts everything printed
   so far in the buffer, so the cut is exact without looking at the
   text.  [faults] is priced as given; its seed only reaches the
   middle piece. *)
let solve_parts ?faults ?mapping ?topo ~m (w : Resopt.Workloads.t) =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let cut () =
    Format.pp_print_flush ppf ();
    let s = Buffer.contents buf in
    Buffer.clear buf;
    s
  in
  let r =
    Resopt.Pipeline.run ~m ~schedule:w.Resopt.Workloads.schedule
      w.Resopt.Workloads.nest
  in
  let models = models_of topo in
  (* models that share a topology share its folds, across both
     blocks *)
  let fold_of = Resopt.Residual.shared () in
  Format.fprintf ppf "%a@." Resopt.Pipeline.pp r;
  Option.iter (mapping_block ppf ~models ~fold_of r) mapping;
  match faults with
  | None -> Unseeded (cut ())
  | Some faults ->
    Format.fprintf ppf "@.resilience under ";
    let head = cut () in
    Machine.Fault.pp ppf faults;
    let model = cut () in
    resilience_rows ppf ~models ~fold_of r faults;
    let tail = cut () in
    if Machine.Fault.is_none faults then Unseeded (head ^ model ^ tail)
    else Seeded { head; specs = Machine.Fault.specs faults; tail }

let stamp_seed seed = function
  | Unseeded s -> s
  | Seeded { head; specs; tail } ->
    String.concat ""
      [ head; Format.asprintf "%a" Machine.Fault.pp (Machine.Fault.make ~seed specs); tail ]

let render ?faults ?mapping ?topo ~m w =
  stamp_seed
    (Option.fold ~none:0 ~some:Machine.Fault.seed faults)
    (solve_parts ?faults ?mapping ?topo ~m w)

let solve (req : Wire.request) =
  let ( let* ) = Result.bind in
  let* w =
    match Resopt.Workloads.find req.Wire.workload with
    | w -> Ok w
    | exception Not_found -> Error ("unknown workload " ^ req.Wire.workload)
  in
  let* faults =
    match req.Wire.faults with
    | None -> Ok None
    | Some s -> (
      match Machine.Fault.parse s with
      | Ok specs -> Ok (Some (Machine.Fault.make specs))
      | Error e -> Error ("bad fault spec: " ^ e))
  in
  let* mapping =
    match req.Wire.map with
    | None | Some "none" -> Ok None
    | Some k -> (
      match Mapping.kind_of_string k with
      | Some kind -> Ok (Some (Mapping.spec ~seed:req.Wire.mseed kind))
      | None -> Error ("bad mapping kind " ^ k))
  in
  match solve_parts ?faults ?mapping ~m:req.Wire.m w with
  | s -> Ok s
  | exception e -> Error ("solve failed: " ^ Printexc.to_string e)

let stamp (req : Wire.request) solved = stamp_seed req.Wire.fseed solved

let of_request req = Result.map (stamp req) (solve req)
