(* Cross-cutting properties: determinism of the whole pipeline,
   consistency between layers, and monotonicity laws. *)

open Linalg

let prop ?(count = 100) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 50_000)

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let plan_fingerprint (r : Resopt.Pipeline.result) =
  List.map
    (fun (e : Resopt.Commplan.entry) ->
      ( e.Resopt.Commplan.stmt,
        e.Resopt.Commplan.label,
        Resopt.Commplan.classification_name e.Resopt.Commplan.classification,
        e.Resopt.Commplan.vectorizable ))
    r.Resopt.Pipeline.plan

let determinism_props =
  [
    prop ~count:60 "pipeline is deterministic" arb_seed (fun seed ->
        let nest = Reference.generated ~seed:(seed + 8_000_000) in
        match
          (Resopt.Pipeline.run ~m:2 nest, Resopt.Pipeline.run ~m:2 nest)
        with
        | exception Failure _ -> true
        | r1, r2 ->
          plan_fingerprint r1 = plan_fingerprint r2
          && r1.Resopt.Pipeline.alloc.Alignment.Alloc.allocs
             = r2.Resopt.Pipeline.alloc.Alignment.Alloc.allocs);
    prop ~count:60 "distributed execution is deterministic" arb_seed (fun seed ->
        let nest = Reference.generated ~seed:(seed + 8_500_000) in
        match Resopt.Pipeline.run ~m:2 nest with
        | exception Failure _ -> true
        | r ->
          let s1 = Resopt.Distexec.run r and s2 = Resopt.Distexec.run r in
          s1.Resopt.Distexec.total_messages = s2.Resopt.Distexec.total_messages);
  ]

(* ------------------------------------------------------------------ *)
(* Layer consistency                                                   *)
(* ------------------------------------------------------------------ *)

let consistency_props =
  [
    prop ~count:60 "plan Local/Translation iff zero non-local term" arb_seed
      (fun seed ->
        let nest = Reference.generated ~seed:(seed + 9_000_000) in
        match Resopt.Pipeline.run ~m:2 nest with
        | exception Failure _ -> true
        | r ->
          List.for_all
            (fun (e : Resopt.Commplan.entry) ->
              let s = Nestir.Loopnest.find_stmt nest e.Resopt.Commplan.stmt in
              let a =
                List.find
                  (fun (a : Nestir.Loopnest.access) ->
                    (if a.Nestir.Loopnest.label = "" then
                       a.Nestir.Loopnest.array_name
                     else a.Nestir.Loopnest.label)
                    = e.Resopt.Commplan.label)
                  s.Nestir.Loopnest.accesses
              in
              match
                Reference.comm_matrix r.Resopt.Pipeline.alloc s a
              with
              | exception Not_found -> true
              | cm -> (
                let is_zero = Mat.is_zero cm in
                match e.Resopt.Commplan.classification with
                | Resopt.Commplan.Local | Resopt.Commplan.Translation _ -> is_zero
                | _ -> not is_zero))
            r.Resopt.Pipeline.plan);
    prop ~count:40 "cost of a plan is non-negative and finite" arb_seed
      (fun seed ->
        let nest = Reference.generated ~seed:(seed + 9_500_000) in
        match Resopt.Pipeline.run ~m:2 nest with
        | exception Failure _ -> true
        | r ->
          let c =
            Resopt.Cost.of_plan (Machine.Models.paragon ()) r.Resopt.Pipeline.plan
          in
          c.Resopt.Cost.total >= 0.0 && Float.is_finite c.Resopt.Cost.total);
  ]

(* ------------------------------------------------------------------ *)
(* Monotonicity laws                                                   *)
(* ------------------------------------------------------------------ *)

let gen_graph =
  QCheck.Gen.(
    int_range 2 5 >>= fun n ->
    int_range 1 8 >>= fun ne ->
    let gen_edge =
      map3 (fun s d w -> (s, d, w)) (int_range 0 (n - 1)) (int_range 0 (n - 1))
        (int_range 1 8)
    in
    map (fun es -> (n, es)) (list_size (return ne) gen_edge))

let arb_graph =
  QCheck.make
    ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=%d" n (List.length es))
    gen_graph

let monotonicity_props =
  [
    prop ~count:300 "adding an edge never hurts the branching" arb_graph
      (fun (n, es) ->
        match es with
        | [] -> true
        | extra :: rest ->
          let mk l =
            List.mapi
              (fun i (s, d, w) -> { Alignment.Edmonds.src = s; dst = d; weight = w; id = i })
              l
          in
          let w_small =
            Reference.total_weight
              (Alignment.Edmonds.maximum_branching ~n (mk rest))
          in
          let w_big =
            Reference.total_weight
              (Alignment.Edmonds.maximum_branching ~n (mk (extra :: rest)))
          in
          w_big >= w_small);
  ]

let () =
  Alcotest.run "properties"
    [
      ("determinism", determinism_props);
      ("consistency", consistency_props);
      ("monotonicity", monotonicity_props);
    ]
