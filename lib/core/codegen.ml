open Linalg
open Nestir

let term coeff var =
  match coeff with
  | 0 -> None
  | 1 -> Some var
  | -1 -> Some ("-" ^ var)
  | c -> Some (Printf.sprintf "%d*%s" c var)

let linear_form row vars =
  let terms =
    List.filteri (fun _ _ -> true)
      (List.concat
         (List.mapi
            (fun j v -> match term row.(j) v with Some t -> [ t ] | None -> [])
            vars))
  in
  match terms with
  | [] -> "0"
  | first :: rest ->
    List.fold_left
      (fun acc t ->
        if String.length t > 0 && t.[0] = '-' then acc ^ t else acc ^ "+" ^ t)
      first rest

let align_expr m =
  let vars = List.init (Mat.cols m) (fun j -> Printf.sprintf "i%d" (j + 1)) in
  List.init (Mat.rows m) (fun r -> linear_form (Mat.row m r) vars)

let emit (r : Pipeline.result) =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let nest = r.Pipeline.nest in
  out "! generated by resopt: mapping of nest %s onto a %d-D grid"
    nest.Loopnest.nest_name r.Pipeline.m;
  out "!HPF$ PROCESSORS grid(%s)"
    (String.concat ", " (List.init r.Pipeline.m (fun i -> Printf.sprintf "P%d" (i + 1))));
  out "!HPF$ DISTRIBUTE grid %s"
    (Distrib.Hpf.print (Array.make r.Pipeline.m Distrib.Layout.Cyclic));
  (* array alignments *)
  List.iter
    (fun (a : Loopnest.array_decl) ->
      match
        try Some (Alignment.Alloc.alloc_of r.Pipeline.alloc
                    (Alignment.Access_graph.Array_v a.Loopnest.array_name))
        with Not_found -> None
      with
      | Some m ->
        let vars =
          String.concat ", " (List.init a.Loopnest.dim (fun j -> Printf.sprintf "i%d" (j + 1)))
        in
        out "!HPF$ ALIGN %s(%s) WITH grid(%s)" a.Loopnest.array_name vars
          (String.concat ", " (align_expr m))
      | None ->
        out "! array %s: below grid dimension, replicated" a.Loopnest.array_name)
    nest.Loopnest.arrays;
  (* statements *)
  List.iter
    (fun (s : Loopnest.stmt) ->
      (match
         try Some (Alignment.Alloc.alloc_of r.Pipeline.alloc
                     (Alignment.Access_graph.Stmt_v s.Loopnest.stmt_name))
         with Not_found -> None
       with
      | Some m ->
        out "! %s: ON HOME grid(%s)" s.Loopnest.stmt_name
          (String.concat ", " (align_expr m))
      | None -> out "! %s: unplaced" s.Loopnest.stmt_name);
      List.iter
        (fun (e : Commplan.entry) ->
          if e.Commplan.stmt = s.Loopnest.stmt_name then
            match e.Commplan.classification with
            | Commplan.Local -> out "!   %s %s: local" e.Commplan.label e.Commplan.array_name
            | Commplan.Translation o ->
              out "!   %s %s: SHIFT by (%s)" e.Commplan.label e.Commplan.array_name
                (String.concat " " (Array.to_list (Array.map string_of_int o)))
            | Commplan.Broadcast i ->
              out "!   %s %s: %s BROADCAST%s" e.Commplan.label e.Commplan.array_name
                (match i.Macrocomm.Broadcast.classification with
                | Macrocomm.Broadcast.Total -> "TOTAL"
                | Macrocomm.Broadcast.Partial -> "PARTIAL"
                | Macrocomm.Broadcast.Hidden -> "HIDDEN")
                (if i.Macrocomm.Broadcast.axis_aligned then " (axis-parallel)" else "")
            | Commplan.Reduction _ ->
              out "!   %s %s: REDUCE" e.Commplan.label e.Commplan.array_name
            | Commplan.Scatter _ ->
              out "!   %s %s: SCATTER" e.Commplan.label e.Commplan.array_name
            | Commplan.Gather _ ->
              out "!   %s %s: GATHER" e.Commplan.label e.Commplan.array_name
            | Commplan.Decomposed { factors; _ } ->
              let k =
                List.fold_left
                  (fun acc f ->
                    max acc (max (abs (Mat.get f 0 1)) (abs (Mat.get f 1 0))))
                  1
                  (List.filter (fun f -> Mat.rows f = 2) factors)
              in
              out "!   %s %s: DECOMPOSED into %d elementary phases (%s)"
                e.Commplan.label e.Commplan.array_name (List.length factors)
                (Format.asprintf "%a" Decomp.Decompose.pp_factors factors);
              out "!     recommended distribution: GROUPED(%d)" k
            | Commplan.General _ ->
              out "!   %s %s: GENERAL communication (unoptimized)"
                e.Commplan.label e.Commplan.array_name)
        r.Pipeline.plan)
    nest.Loopnest.stmts;
  Buffer.contents buf

let comm_call (e : Commplan.entry) =
  match e.Commplan.classification with
  | Commplan.Local -> None
  | Commplan.Translation o ->
    Some
      (Printf.sprintf "shift(%s, (%s))" e.Commplan.array_name
         (String.concat "," (Array.to_list (Array.map string_of_int o))))
  | Commplan.Broadcast i ->
    Some
      (Printf.sprintf "%s_broadcast(%s)"
         (match i.Macrocomm.Broadcast.classification with
         | Macrocomm.Broadcast.Total -> "total"
         | Macrocomm.Broadcast.Partial -> "partial"
         | Macrocomm.Broadcast.Hidden -> "hidden")
         e.Commplan.array_name)
  | Commplan.Reduction _ -> Some (Printf.sprintf "reduce(%s)" e.Commplan.array_name)
  | Commplan.Scatter _ -> Some (Printf.sprintf "scatter(%s)" e.Commplan.array_name)
  | Commplan.Gather _ -> Some (Printf.sprintf "gather(%s)" e.Commplan.array_name)
  | Commplan.Decomposed { factors; _ } ->
    Some
      (Printf.sprintf "decomposed_phases(%s, %d)" e.Commplan.array_name
         (List.length factors))
  | Commplan.General _ -> Some (Printf.sprintf "general_comm(%s)" e.Commplan.array_name)

(* Rendered for a block layout on a grid of extent 2 per dimension. *)
let emit_spmd (r : Pipeline.result) =
  let m = r.Pipeline.m in
  let pgrid = Array.make m 2 in
  let layout = Distrib.Layout.all_block m in
  let nest = r.Pipeline.nest in
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  out "/* SPMD owner-computes program for nest %s on a %s grid */"
    nest.Loopnest.nest_name
    (String.concat "x" (Array.to_list (Array.map string_of_int pgrid)));
  out "me = my_grid_coordinates();";
  let phases = Phases.of_result r in
  if phases.Phases.hoisted <> [] then begin
    out "";
    out "/* hoisted (vectorized) communications: once, before the loops */";
    List.iter
      (fun e ->
        match comm_call e with
        | Some c -> out "%s;  /* %s/%s */" c e.Commplan.stmt e.Commplan.label
        | None -> ())
      phases.Phases.hoisted
  end;
  List.iter
    (fun (s : Loopnest.stmt) ->
      out "";
      out "/* statement %s: ON HOME grid(%s) */" s.Loopnest.stmt_name
        (match
           try Some (Alignment.Alloc.alloc_of r.Pipeline.alloc
                       (Alignment.Access_graph.Stmt_v s.Loopnest.stmt_name))
           with Not_found -> None
         with
        | Some mat -> String.concat ", " (align_expr mat)
        | None -> "unplaced");
      List.iter
        (fun (e : Commplan.entry) ->
          if
            e.Commplan.stmt = s.Loopnest.stmt_name
            && List.memq e phases.Phases.per_timestep
          then
            match comm_call e with
            | Some c -> out "%s;  /* per timestep: %s */" c e.Commplan.label
            | None -> ())
        r.Pipeline.plan;
      (* local iteration set: a virtual-grid loop restricted to the
         coordinates this processor owns under the layout; the first m
         loops are distributed, deeper ones stay local *)
      Array.iteri
        (fun d extent ->
          (* 1-based index names, matching align_expr *)
          let v = d + 1 in
          if d < m then
            out "for (i%d in my_indices(%s, extent=%d))  /* %s */" v
              (Format.asprintf "%a" Distrib.Layout.pp_scheme layout.(d))
              extent s.Loopnest.stmt_name
          else out "for (i%d = 0; i%d < %d; i%d++)" v v extent v)
        s.Loopnest.extent;
      let subscripts (a : Loopnest.access) =
        a.Loopnest.array_name
        ^ String.concat ""
            (align_expr a.Loopnest.map.Affine.f
            |> List.map (fun e -> "[" ^ e ^ "]"))
      in
      let writes =
        List.filter (fun (a : Loopnest.access) -> a.Loopnest.kind = Loopnest.Write)
          s.Loopnest.accesses
      in
      List.iter
        (fun w -> out "  %s = f_%s(...);" (subscripts w) s.Loopnest.stmt_name)
        writes)
    nest.Loopnest.stmts;
  Buffer.contents buf
