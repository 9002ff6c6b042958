open Linalg
open Nestir

let label_of (a : Loopnest.access) =
  if a.Loopnest.label = "" then a.Loopnest.array_name else a.Loopnest.label

let eligible ~m (nest : Loopnest.t) =
  List.filter_map
    (fun ((s : Loopnest.stmt), (a : Loopnest.access)) ->
      let f = a.Loopnest.map.Affine.f in
      let q = Mat.rows f and d = Mat.cols f in
      let r = Ratmat.rank_of_mat f in
      if r = min q d && r >= m && q >= m && d >= m then
        Some (s.Loopnest.stmt_name, label_of a)
      else None)
    (Loopnest.all_accesses nest)

(* Vertices and the layout of the unknown vector: every statement and
   array of dimension >= m contributes an m x dim block of unknowns. *)
type vertex_info = { name : Access_graph.vertex; dim : int; offset : int }

let vertex_layout ~m (nest : Loopnest.t) =
  let infos = ref [] in
  let offset = ref 0 in
  let add name dim =
    if dim >= m then begin
      infos := { name; dim; offset = !offset } :: !infos;
      offset := !offset + (m * dim)
    end
  in
  List.iter
    (fun (a : Loopnest.array_decl) ->
      add (Access_graph.Array_v a.Loopnest.array_name) a.Loopnest.dim)
    nest.Loopnest.arrays;
  List.iter
    (fun (s : Loopnest.stmt) ->
      add (Access_graph.Stmt_v s.Loopnest.stmt_name) s.Loopnest.depth)
    nest.Loopnest.stmts;
  (List.rev !infos, !offset)


let feasible ~m (nest : Loopnest.t) subset =
  let infos, nvars = vertex_layout ~m nest in
  if nvars = 0 then subset = []
  else begin
    (* constraint rows: for each access in the subset, for each entry
       (r, c) of M_S: M_S[r][c] - sum_k M_x[r][k] F[k][c] = 0 *)
    let rows = ref [] in
    let ok = ref true in
    List.iter
      (fun ((s : Loopnest.stmt), (a : Loopnest.access)) ->
        if List.mem (s.Loopnest.stmt_name, label_of a) subset then begin
          match
            ( List.find_opt (fun i -> i.name = Access_graph.Stmt_v s.Loopnest.stmt_name) infos,
              List.find_opt (fun i -> i.name = Access_graph.Array_v a.Loopnest.array_name) infos )
          with
          | Some si, Some xi ->
            let f = a.Loopnest.map.Affine.f in
            let d = Mat.cols f and q = Mat.rows f in
            for r = 0 to m - 1 do
              for c = 0 to d - 1 do
                let row = Array.make nvars 0 in
                row.(si.offset + (r * si.dim) + c) <- 1;
                for k = 0 to q - 1 do
                  row.(xi.offset + (r * xi.dim) + k) <-
                    row.(xi.offset + (r * xi.dim) + k) - Mat.get f k c
                done;
                rows := row :: !rows
              done
            done
          | _ -> ok := false
        end)
      (Loopnest.all_accesses nest);
    if not !ok then false
    else begin
      let solution_basis =
        match !rows with
        | [] ->
          (* unconstrained: the standard basis *)
          List.init nvars (fun i ->
              Mat.of_col (Array.init nvars (fun j -> if i = j then 1 else 0)))
        | rows ->
          let a = Mat.of_arrays (Array.of_list rows) in
          Ratmat.kernel_of_mat a
      in
      if solution_basis = [] then false
      else begin
        let basis = Array.of_list (List.map (fun c -> Mat.col c 0) solution_basis) in
        let nb = Array.length basis in
        let all_full_rank vec =
          List.for_all
            (fun info ->
              let mv =
                Mat.make m info.dim (fun r c -> vec.(info.offset + (r * info.dim) + c))
              in
              Ratmat.rank_of_mat mv = m)
            infos
        in
        let combine coeff =
          Array.init nvars (fun j ->
              let acc = ref 0 in
              for b = 0 to nb - 1 do
                acc := !acc + (coeff.(b) * basis.(b).(j))
              done;
              !acc)
        in
        (* deterministic first guesses, then seeded randomness *)
        let st = Random.State.make [| 0x0b7 |] in
        let rec attempt tries =
          if tries = 0 then false
          else begin
            let coeff = Array.init nb (fun _ -> Random.State.int st 9 - 4) in
            if all_full_rank (combine coeff) then true else attempt (tries - 1)
          end
        in
        let unit_guesses =
          List.exists
            (fun b -> all_full_rank basis.(b))
            (List.init nb (fun b -> b))
        in
        unit_guesses || attempt 300
      end
    end
  end

let optimal_local_count ~m nest =
  let universe = Array.of_list (eligible ~m nest) in
  let n = Array.length universe in
  if n > 12 then invalid_arg "Alignopt.optimal_local_count: too many accesses";
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let size =
      let rec bits x acc = if x = 0 then acc else bits (x lsr 1) (acc + (x land 1)) in
      bits mask 0
    in
    if size > !best then begin
      let subset = ref [] in
      for i = 0 to n - 1 do
        if mask land (1 lsl i) <> 0 then subset := universe.(i) :: !subset
      done;
      if feasible ~m nest !subset then best := size
    end
  done;
  !best

let heuristic_gap ~m nest =
  let t = Alloc.run ~m nest in
  (List.length t.Alloc.local, optimal_local_count ~m nest)
