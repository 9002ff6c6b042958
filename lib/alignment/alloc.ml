open Linalg
open Nestir

type t = {
  graph : Access_graph.t;
  nest : Loopnest.t;
  m : int;
  branching : Access_graph.edge list;
  added : Access_graph.edge list;
  allocs : (Access_graph.vertex * Mat.t) list;
  local : (string * string) list;
  residual : (string * string) list;
  component_of : (Access_graph.vertex * int) list;
}

(* ------------------------------------------------------------------ *)
(* Forest structure over vertex indices                                *)
(* ------------------------------------------------------------------ *)

type forest = {
  n : int;
  parent : Access_graph.edge option array;  (* in-edge per vertex *)
  dims : int array;  (* allocation width per vertex *)
}

let build_forest (graph : Access_graph.t) (nest : Loopnest.t) chosen =
  let n = Array.length graph.Access_graph.vertices in
  let parent = Array.make n None in
  List.iter
    (fun (e : Access_graph.edge) ->
      let d = Access_graph.vertex_index graph e.Access_graph.e_dst in
      parent.(d) <- Some e)
    chosen;
  let dims =
    Array.map (fun v -> Access_graph.vertex_dim nest v) graph.Access_graph.vertices
  in
  { n; parent; dims }

let forest_root graph forest v =
  let rec go v =
    match forest.parent.(v) with
    | None -> v
    | Some e -> go (Access_graph.vertex_index graph e.Access_graph.e_src)
  in
  go v

(* W(v): product of edge weights along the root -> v path.
   M_v = M_root * W(v). *)
let path_weight graph forest v =
  let rec go v =
    match forest.parent.(v) with
    | None -> Ratmat.identity forest.dims.(v)
    | Some e ->
      let u = Access_graph.vertex_index graph e.Access_graph.e_src in
      Ratmat.mul (go u) e.Access_graph.weight
  in
  go v

(* ------------------------------------------------------------------ *)
(* Materialization                                                     *)
(* ------------------------------------------------------------------ *)

(* Try to produce a full-rank m x k integer root allocation whose rows
   lie in the row space spanned by [rows] (or anywhere if rows = None),
   such that every propagated matrix [M_root * w] for w in [weights]
   has rank m.  Deterministic first guesses, then seeded random
   combinations. *)
let materialize_root ~m ~k ~(row_space : Mat.t option)
    ~(weights : (Access_graph.vertex * Ratmat.t) list) ~constraint_ok =
  let candidate_ok cand =
    Ratmat.rank_of_mat cand = m
    && List.for_all
         (fun (v, w) ->
           let mv = Ratmat.mul (Ratmat.of_mat cand) w in
           Ratmat.rank mv = m && constraint_ok v mv)
         weights
  in
  let basis =
    match row_space with
    | None -> Mat.identity k
    | Some rows -> rows
  in
  let nb = Mat.rows basis in
  if nb < m then None
  else begin
    (* first guess: the first m basis rows *)
    let first = Mat.sub_matrix basis ~row:0 ~col:0 ~rows:m ~cols:k in
    if candidate_ok first then Some first
    else begin
      let st = Random.State.make [| 0xa11c |] in
      let rec attempt tries =
        if tries = 0 then None
        else begin
          let coeff =
            Array.init m (fun _ -> Array.init nb (fun _ -> Random.State.int st 7 - 3))
          in
          let cand =
            Mat.make m k (fun i j ->
                let acc = ref 0 in
                for b = 0 to nb - 1 do
                  acc := !acc + (coeff.(i).(b) * Mat.get basis b j)
                done;
                !acc)
          in
          if candidate_ok cand then Some cand else attempt (tries - 1)
        end
      in
      attempt 400
    end
  end

(* Rows spanning {r | r . D_i = 0 for all i}: kernel of the stacked
   transposes. *)
let rat_vcat a b =
  if Ratmat.cols a <> Ratmat.cols b then invalid_arg "Alloc.rat_vcat";
  Ratmat.make
    (Ratmat.rows a + Ratmat.rows b)
    (Ratmat.cols a)
    (fun i j ->
      if i < Ratmat.rows a then Ratmat.get a i j else Ratmat.get b (i - Ratmat.rows a) j)

let constrained_row_space ~k (constraints : Ratmat.t list) =
  match List.map Ratmat.transpose constraints with
  | [] -> None
  | d0 :: rest ->
    let stack = List.fold_left rat_vcat d0 rest in
    let kernel = Ratmat.kernel stack in
    (match kernel with
    | [] -> Some (Mat.zero 1 k) (* no admissible rows: will fail the rank test *)
    | cols ->
      let rows = List.map Mat.transpose cols in
      Some (List.fold_left Mat.vcat (List.hd rows) (List.tl rows)))

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

let run ?(vertex_constraint = fun _ _ -> true) ?weighting ~m (nest : Loopnest.t) =
  let graph = Access_graph.build ?weighting ~m nest in
  let branching =
    Obs.with_span "alloc.branching" @@ fun () ->
    let eedges, lookup = Access_graph.to_edmonds graph in
    let n = Array.length graph.Access_graph.vertices in
    let selected = Edmonds.maximum_branching ~n eedges in
    List.map (fun (e : Edmonds.edge) -> lookup e.Edmonds.id) selected
  in
  let n = Array.length graph.Access_graph.vertices in
  let forest = build_forest graph nest branching in
  let key (e : Access_graph.edge) = (e.Access_graph.stmt_name, e.Access_graph.label) in
  let local = ref (List.sort_uniq compare (List.map key branching)) in
  let added = ref [] in
  (* constraints per root index *)
  let constraints : (int, Ratmat.t list) Hashtbl.t = Hashtbl.create 8 in
  let get_constraints r = Option.value ~default:[] (Hashtbl.find_opt constraints r) in
  (* weights needed for the rank check of a given root *)
  let component_vertices r =
    List.filter
      (fun v -> forest_root graph forest v = r)
      (List.init n (fun i -> i))
  in
  let component_weights r =
    List.filter_map
      (fun v ->
        if forest.dims.(v) >= m then
          Some (graph.Access_graph.vertices.(v), path_weight graph forest v)
        else None)
      (component_vertices r)
  in
  let try_materialize r extra =
    let k = forest.dims.(r) in
    let cs = extra @ get_constraints r in
    let row_space = constrained_row_space ~k cs in
    materialize_root ~m ~k ~row_space ~weights:(component_weights r)
      ~constraint_ok:vertex_constraint
    <> None
  in
  (* Step 1c: try to add the remaining in-graph accesses. *)
  let all_keys =
    List.sort_uniq compare (List.map key graph.Access_graph.edges)
  in
  ( Obs.with_span "alloc.readditions" @@ fun () ->
  List.iter
    (fun (stmt, label) ->
      if not (List.mem (stmt, label) !local) then begin
        let orientations = Access_graph.edges_of_access graph ~stmt ~label in
        let try_edge (e : Access_graph.edge) =
          let u = Access_graph.vertex_index graph e.Access_graph.e_src in
          let v = Access_graph.vertex_index graph e.Access_graph.e_dst in
          let ru = forest_root graph forest u and rv = forest_root graph forest v in
          if ru <> rv then begin
            (* Cross-tree edge.  The tractable (and common) case: the
               source is an isolated root, i.e. a free vertex.  The
               equation M_u w = M_v has a solution M_u = M_v w+ iff the
               compatibility condition M_v w+ w = M_v holds (Lemma 2),
               which is the root constraint
               M_rv (W(v) (Id - w+ w)) = 0.  When it is satisfiable we
               merge the free vertex into v's tree with the synthetic
               parent weight w+. *)
            let u_isolated =
              forest.parent.(u) = None
              && not
                   (Array.exists
                      (function
                        | Some (pe : Access_graph.edge) ->
                          Access_graph.vertex_index graph pe.Access_graph.e_src = u
                        | None -> false)
                      forest.parent)
            in
            if not u_isolated then false
            else begin
              let w = e.Access_graph.weight in
              (* one-sided rational pseudo-inverse of w, by shape *)
              let wt = Ratmat.transpose w in
              let wplus_opt =
                if Ratmat.rows w <= Ratmat.cols w then
                  Option.map (Ratmat.mul wt) (Ratmat.inverse (Ratmat.mul w wt))
                else
                  Option.map
                    (fun gi -> Ratmat.mul gi wt)
                    (Ratmat.inverse (Ratmat.mul wt w))
              in
              match wplus_opt with
              | None -> false
              | Some wplus ->
                let wv = path_weight graph forest v in
                let residual =
                  Ratmat.sub
                    (Ratmat.identity (Ratmat.cols w))
                    (Ratmat.mul wplus w)
                in
                let d = Ratmat.mul wv residual in
                let accept () =
                  (* attach u below v with the synthetic weight w+ *)
                  forest.parent.(u) <-
                    Some
                      {
                        e with
                        Access_graph.e_src = e.Access_graph.e_dst;
                        e_dst = e.Access_graph.e_src;
                        weight = wplus;
                      };
                  added := e :: !added;
                  true
                in
                if Ratmat.is_zero d then accept ()
                else if
                  Ratmat.rank d < forest.dims.(rv) && try_materialize rv [ d ]
                then begin
                  Hashtbl.replace constraints rv (d :: get_constraints rv);
                  accept ()
                end
                else false
            end
          end
          else begin
            let wu = path_weight graph forest u in
            let wv = path_weight graph forest v in
            let d = Ratmat.sub (Ratmat.mul wu e.Access_graph.weight) wv in
            if Ratmat.is_zero d then begin
              (* case i: equal matrix weights — always local *)
              added := e :: !added;
              true
            end
            else if Ratmat.rank d < forest.dims.(ru) then begin
              (* case ii: deficient rank — local iff a full-rank root in
                 the left kernel still exists *)
              if try_materialize ru [ d ] then begin
                Hashtbl.replace constraints ru (d :: get_constraints ru);
                added := e :: !added;
                true
              end
              else false
            end
            else false
          end
        in
        if List.exists try_edge orientations then
          local := (stmt, label) :: !local
      end)
    all_keys );
  (* Materialize every component. *)
  Obs.with_span "alloc.materialize" @@ fun () ->
  let roots =
    List.sort_uniq compare
      (List.map (fun v -> forest_root graph forest v) (List.init n (fun i -> i)))
  in
  let allocs = ref [] in
  let component_of = ref [] in
  List.iteri
    (fun comp_id r ->
      let k = forest.dims.(r) in
      let members = component_vertices r in
      List.iter
        (fun v ->
          component_of := (graph.Access_graph.vertices.(v), comp_id) :: !component_of)
        members;
      if k >= m then begin
        let row_space = constrained_row_space ~k (get_constraints r) in
        match
          materialize_root ~m ~k ~row_space ~weights:(component_weights r)
            ~constraint_ok:vertex_constraint
        with
        | None ->
          failwith
            (Printf.sprintf "Alloc.run: no full-rank allocation for component of %s"
               (Access_graph.vertex_name graph.Access_graph.vertices.(r)))
        | Some mroot ->
          (* Scaling one vertex alone would break locality, so a common
             scaling of the whole component clears any denominators. *)
          let member_mats =
            List.filter_map
              (fun v ->
                if forest.dims.(v) >= m then
                  Some (v, Ratmat.mul (Ratmat.of_mat mroot) (path_weight graph forest v))
                else None)
              members
          in
          let lcm a b =
            let rec gcd a b = if b = 0 then abs a else gcd b (a mod b) in
            if a = 0 || b = 0 then 0 else abs (a * b) / gcd a b
          in
          let scale =
            List.fold_left
              (fun acc (_, mv) ->
                let s = ref acc in
                for i = 0 to Ratmat.rows mv - 1 do
                  for j = 0 to Ratmat.cols mv - 1 do
                    s := lcm !s (Rat.den (Ratmat.get mv i j))
                  done
                done;
                !s)
              1 member_mats
          in
          List.iter
            (fun (v, mv) ->
              let scaled = Ratmat.scale (Rat.of_int scale) mv in
              allocs :=
                (graph.Access_graph.vertices.(v), Ratmat.to_mat_exn scaled) :: !allocs)
            member_mats
      end)
    roots;
  let all_keys_set = all_keys in
  let residual =
    List.filter (fun key -> not (List.mem key !local)) all_keys_set
  in
  Obs.incr ~by:(List.length !local) "edges_localized";
  Obs.incr ~by:(List.length residual) "alloc.residual";
  {
    graph;
    nest;
    m;
    branching;
    added = List.rev !added;
    allocs = List.rev !allocs;
    local = List.sort compare !local;
    residual;
    component_of = List.rev !component_of;
  }

let alloc_of t v = List.assoc v t.allocs

let component t v =
  match List.assoc_opt v t.component_of with
  | Some c -> c
  | None -> invalid_arg "Alloc.component: unknown vertex"

let apply_unimodular t ~component:comp u =
  if not (Unimodular.is_unimodular u) then
    invalid_arg "Alloc.apply_unimodular: not unimodular";
  let allocs =
    List.map
      (fun (v, mv) ->
        if List.assoc_opt v t.component_of = Some comp then (v, Mat.mul u mv)
        else (v, mv))
      t.allocs
  in
  { t with allocs }

let is_local t ~stmt ~label = List.mem (stmt, label) t.local

let pp ppf t =
  Format.fprintf ppf "alignment (m = %d)@\n" t.m;
  Format.fprintf ppf "  branching:";
  List.iter (fun (e : Access_graph.edge) -> Format.fprintf ppf " %s" e.Access_graph.label) t.branching;
  Format.fprintf ppf "@\n  added (step 1c):";
  List.iter (fun (e : Access_graph.edge) -> Format.fprintf ppf " %s" e.Access_graph.label) t.added;
  Format.fprintf ppf "@\n  local:";
  List.iter (fun (s, l) -> Format.fprintf ppf " %s/%s" s l) t.local;
  Format.fprintf ppf "@\n  residual:";
  List.iter (fun (s, l) -> Format.fprintf ppf " %s/%s" s l) t.residual;
  Format.fprintf ppf "@\n";
  List.iter
    (fun (v, mv) ->
      Format.fprintf ppf "  M[%s] = %a@\n" (Access_graph.vertex_name v) Mat.pp_flat mv)
    t.allocs
