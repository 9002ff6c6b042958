open Linalg
open Nestir

type violation = { stmt : string; label : string; reason : string }

let pp_violation ppf v =
  Format.fprintf ppf "%s/%s: %s" v.stmt v.label v.reason

(* Enumerate the iteration domain, capping every extent so the point
   count stays tractable; the cap keeps enough diversity for every
   pairwise condition below. *)
let domain_points (s : Loopnest.stmt) =
  let capped = Array.map (fun e -> min e 6) s.Loopnest.extent in
  let points = ref [] in
  Machine.Patterns.iter_box capped (fun v -> points := v :: !points);
  !points

let vec_eq a b = Array.for_all2 ( = ) a b

let check (r : Pipeline.result) =
  let nest = r.Pipeline.nest in
  let violations = ref [] in
  let report stmt label reason = violations := { stmt; label; reason } :: !violations in
  let alloc_opt v =
    try Some (Alignment.Alloc.alloc_of r.Pipeline.alloc v) with Not_found -> None
  in
  List.iter
    (fun (e : Commplan.entry) ->
      let s = Loopnest.find_stmt nest e.Commplan.stmt in
      let a =
        List.find
          (fun (a : Loopnest.access) ->
            (if a.Loopnest.label = "" then a.Loopnest.array_name else a.Loopnest.label)
            = e.Commplan.label)
          s.Loopnest.accesses
      in
      let theta = Schedule.theta r.Pipeline.schedule s.Loopnest.stmt_name in
      let fmat = a.Loopnest.map.Affine.f in
      let ms = alloc_opt (Alignment.Access_graph.Stmt_v e.Commplan.stmt) in
      let mx = alloc_opt (Alignment.Access_graph.Array_v e.Commplan.array_name) in
      let points = domain_points s in
      let timestep i = Mat.mul_vec theta i in
      let element i = Affine.apply a.Loopnest.map i in
      let owner mx i = Mat.mul_vec mx (element i) in
      let proc ms i = Mat.mul_vec ms i in
      let delta ms mx i = Array.map2 ( - ) (proc ms i) (owner mx i) in
      let delta_constant ms mx =
        match points with
        | [] -> true
        | p0 :: rest ->
          let d0 = delta ms mx p0 in
          List.for_all (fun p -> vec_eq (delta ms mx p) d0) rest
      in
      let exists_pair pred =
        List.exists (fun i1 -> List.exists (fun i2 -> i1 != i2 && pred i1 i2) points)
          points
      in
      (* The macro-communication conditions are statements about the
         infinite index space; a small iteration domain may not
         contain a witnessing pair.  When the empirical search fails we
         re-derive the condition independently with the subspace
         algebra and accept iff it confirms. *)
      let open Linalg in
      let ker m = Subspace.kernel m in
      let shared_with m2 = Subspace.intersect (ker theta) (ker m2) in
      let escapes space m =
        List.exists (fun v -> not (Mat.is_zero (Mat.mul m v))) (Subspace.basis space)
      in
      let algebraic_broadcast ms = escapes (shared_with fmat) ms in
      let algebraic_spread ms mx =
        let space = shared_with (Mat.mul mx fmat) in
        escapes space ms && escapes space fmat
      in
      let algebraic_reduction ms mb = escapes (shared_with ms) (Mat.mul mb fmat) in
      (match (e.Commplan.classification, ms, mx) with
      | Commplan.Local, Some ms, Some mx ->
        if
          not
            (List.for_all (fun i -> Array.for_all (( = ) 0) (delta ms mx i)) points)
        then report e.Commplan.stmt e.Commplan.label "local access has remote iterations"
      | Commplan.Translation o, Some ms, Some mx ->
        if not (delta_constant ms mx) then
          report e.Commplan.stmt e.Commplan.label "translation offset is not constant"
        else (
          match points with
          | p0 :: _ ->
            let d = delta ms mx p0 in
            if Array.for_all (( = ) 0) d then
              report e.Commplan.stmt e.Commplan.label
                "translation with zero offset should be local";
            if not (vec_eq d (Array.map (fun x -> -x) o)) then
              report e.Commplan.stmt e.Commplan.label
                "translation offset disagrees with the plan"
          | [] -> ())
      | Commplan.Broadcast _, Some ms, _ ->
        if
          (not
             (exists_pair (fun i1 i2 ->
                  vec_eq (timestep i1) (timestep i2)
                  && vec_eq (element i1) (element i2)
                  && not (vec_eq (proc ms i1) (proc ms i2)))))
          && not (algebraic_broadcast ms)
        then
          report e.Commplan.stmt e.Commplan.label
            "no element is read by two processors at one timestep"
      | Commplan.Reduction _, Some ms, Some mb ->
        if
          (not
             (exists_pair (fun i1 i2 ->
                  vec_eq (timestep i1) (timestep i2)
                  && vec_eq (proc ms i1) (proc ms i2)
                  && not (vec_eq (owner mb i1) (owner mb i2)))))
          && not (algebraic_reduction ms mb)
        then
          report e.Commplan.stmt e.Commplan.label
            "no processor combines values from two owners"
      | (Commplan.Scatter _ | Commplan.Gather _), Some ms, Some mx ->
        if
          (not
             (exists_pair (fun i1 i2 ->
                  vec_eq (timestep i1) (timestep i2)
                  && vec_eq (owner mx i1) (owner mx i2)
                  && (not (vec_eq (proc ms i1) (proc ms i2)))
                  && not (vec_eq (element i1) (element i2)))))
          && not (algebraic_spread ms mx)
        then
          report e.Commplan.stmt e.Commplan.label
            "no owner exchanges distinct elements with several processors"
      | (Commplan.Decomposed _ | Commplan.General _), Some ms, Some mx ->
        if delta_constant ms mx then
          report e.Commplan.stmt e.Commplan.label
            "offset is constant: should have been local or a translation"
      | _, _, _ -> ());
      (* the vectorization flag: same processor => same source datum
         location *)
      match (ms, mx) with
      | Some ms, Some mx ->
        if e.Commplan.vectorizable then
          if
            exists_pair (fun i1 i2 ->
                vec_eq (proc ms i1) (proc ms i2)
                && not (vec_eq (owner mx i1) (owner mx i2)))
          then
            report e.Commplan.stmt e.Commplan.label
              "vectorizable access reads time-varying locations"
      | _ -> ())
    r.Pipeline.plan;
  List.rev !violations

let is_valid r = check r = []
