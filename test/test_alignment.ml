(* Tests for the access graph, Edmonds' maximum branching and the
   allocation heuristic with its components (step 1 of the paper). *)

open Linalg
open Alignment

let prop ?(count = 200) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* Edmonds                                                             *)
(* ------------------------------------------------------------------ *)

let mk_edges l = List.mapi (fun i (src, dst, weight) -> { Edmonds.src; dst; weight; id = i }) l

let test_edmonds_simple () =
  (* path 0 -> 1 -> 2 with a worse alternative 0 -> 2 *)
  let edges = mk_edges [ (0, 1, 5); (1, 2, 5); (0, 2, 3) ] in
  let sel = Edmonds.maximum_branching ~n:3 edges in
  Alcotest.(check int) "weight" 10 (Reference.total_weight sel);
  Alcotest.(check bool) "branching" true (Reference.is_branching ~n:3 sel)

let test_edmonds_cycle () =
  (* 2-cycle between 0 and 1 plus an external entry: must break it *)
  let edges = mk_edges [ (0, 1, 10); (1, 0, 10); (2, 0, 1); (2, 1, 1) ] in
  let sel = Edmonds.maximum_branching ~n:3 edges in
  Alcotest.(check bool) "branching" true (Reference.is_branching ~n:3 sel);
  Alcotest.(check int) "weight = brute force" (Reference.brute_force_branching ~n:3 edges)
    (Reference.total_weight sel)

let test_edmonds_negative_ignored () =
  let edges = mk_edges [ (0, 1, -5); (1, 2, 3) ] in
  let sel = Edmonds.maximum_branching ~n:3 edges in
  Alcotest.(check int) "only positive edge" 3 (Reference.total_weight sel);
  Alcotest.(check int) "one edge" 1 (List.length sel)

let test_edmonds_empty () =
  Alcotest.(check (list int)) "no edges" []
    (List.map (fun e -> e.Edmonds.id) (Edmonds.maximum_branching ~n:4 []))

let gen_graph =
  QCheck.Gen.(
    int_range 2 5 >>= fun n ->
    int_range 0 10 >>= fun ne ->
    let gen_edge =
      map3 (fun s d w -> (s, d, w)) (int_range 0 (n - 1)) (int_range 0 (n - 1))
        (int_range (-2) 8)
    in
    map (fun es -> (n, es)) (list_size (return ne) gen_edge))

let arb_graph =
  QCheck.make
    ~print:(fun (n, es) ->
      Printf.sprintf "n=%d %s" n
        (String.concat ";"
           (List.map (fun (s, d, w) -> Printf.sprintf "%d->%d(%d)" s d w) es)))
    gen_graph

let edmonds_props =
  [
    prop ~count:500 "edmonds matches brute force" arb_graph (fun (n, es) ->
        let edges = mk_edges es in
        let sel = Edmonds.maximum_branching ~n edges in
        Reference.is_branching ~n sel
        && Reference.total_weight sel = Reference.brute_force_branching ~n edges);
    prop ~count:300 "selected ids are valid and distinct" arb_graph (fun (n, es) ->
        let edges = mk_edges es in
        let sel = Edmonds.maximum_branching ~n edges in
        let ids = List.map (fun e -> e.Edmonds.id) sel in
        List.length ids = List.length (List.sort_uniq compare ids)
        && List.for_all (fun i -> i >= 0 && i < List.length es) ids);
  ]

(* ------------------------------------------------------------------ *)
(* Access graph                                                        *)
(* ------------------------------------------------------------------ *)

let example1_graph () = Access_graph.build ~m:2 (Nestir.Paper_examples.example1 ())

let test_graph_structure () =
  let g = example1_graph () in
  Alcotest.(check int) "6 vertices" 6 (Array.length g.Access_graph.vertices);
  (* 8 full-rank accesses: 3 square ones contribute two orientations *)
  Alcotest.(check int) "12 directed edges" 12 (List.length g.Access_graph.edges);
  Alcotest.(check (list (pair string string))) "F9 excluded"
    [ ("S3", "F9") ] g.Access_graph.excluded

let test_graph_orientations () =
  let g = example1_graph () in
  let dirs label =
    List.map
      (fun e ->
        ( Access_graph.vertex_name e.Access_graph.e_src,
          Access_graph.vertex_name e.Access_graph.e_dst,
          e.Access_graph.forward ))
      (Access_graph.edges_of_access g ~stmt:"S1" ~label)
  in
  (* F1 narrow: statement to array only *)
  Alcotest.(check (list (triple string string bool))) "F1: S1 -> b"
    [ ("S1", "b", true) ] (dirs "F1");
  (* F2 square: both *)
  Alcotest.(check (list (triple string string bool))) "F2: both"
    [ ("a", "S1", true); ("S1", "a", false) ]
    (dirs "F2");
  (* F6 flat: array to statement *)
  let f6 =
    List.map
      (fun e ->
        ( Access_graph.vertex_name e.Access_graph.e_src,
          Access_graph.vertex_name e.Access_graph.e_dst ))
      (Access_graph.edges_of_access g ~stmt:"S2" ~label:"F6")
  in
  Alcotest.(check (list (pair string string))) "F6: a -> S2" [ ("a", "S2") ] f6

let test_graph_weights () =
  let g = example1_graph () in
  List.iter
    (fun e ->
      let expected =
        match e.Access_graph.label with "F5" | "F7" -> 3 | _ -> 2
      in
      Alcotest.(check int)
        ("volume of " ^ e.Access_graph.label)
        expected e.Access_graph.volume)
    g.Access_graph.edges

let test_graph_weight_makes_local () =
  (* forward edge weights satisfy M_dst = M_src * weight *)
  let g = example1_graph () in
  List.iter
    (fun e ->
      if e.Access_graph.forward then begin
        (* for a narrow access with weight G we must have G F = Id *)
        let nest = Nestir.Paper_examples.example1 () in
        let s = Nestir.Loopnest.find_stmt nest e.Access_graph.stmt_name in
        let a =
          List.find
            (fun (a : Nestir.Loopnest.access) ->
              a.Nestir.Loopnest.label = e.Access_graph.label)
            s.Nestir.Loopnest.accesses
        in
        let f = Ratmat.of_mat a.Nestir.Loopnest.map.Nestir.Affine.f in
        match (e.Access_graph.e_src, e.Access_graph.e_dst) with
        | Access_graph.Stmt_v _, Access_graph.Array_v _ ->
          Alcotest.(check bool)
            ("G F = Id for " ^ e.Access_graph.label)
            true
            (let gf = Ratmat.mul e.Access_graph.weight f in
             Ratmat.(is_zero (sub gf (identity (rows gf)))))
        | Access_graph.Array_v _, Access_graph.Stmt_v _ ->
          Alcotest.(check bool)
            ("weight = F for " ^ e.Access_graph.label)
            true
            (Ratmat.is_zero (Ratmat.sub e.Access_graph.weight f))
        | _ -> Alcotest.fail "array-array or stmt-stmt edge"
      end)
    g.Access_graph.edges

(* ------------------------------------------------------------------ *)
(* Alloc                                                               *)
(* ------------------------------------------------------------------ *)

let test_alloc_example1 () =
  let t = Alloc.run ~m:2 (Nestir.Paper_examples.example1 ()) in
  let labels l = List.sort compare l in
  Alcotest.(check (list (pair string string)))
    "local set"
    (labels
       [ ("S1", "F1"); ("S1", "F2"); ("S1", "F4"); ("S2", "F5"); ("S3", "F7");
         ("S3", "F8") ])
    (labels t.Alloc.local);
  Alcotest.(check (list (pair string string)))
    "residual set"
    (labels [ ("S1", "F3"); ("S2", "F6") ])
    (labels t.Alloc.residual);
  Alcotest.(check int) "branching has 5 edges" 5 (List.length t.Alloc.branching);
  Alcotest.(check int) "one step-1c addition" 1 (List.length t.Alloc.added);
  Alcotest.(check bool) "verify" true (Reference.verify_alloc t);
  (* one connected component *)
  let comps =
    List.sort_uniq compare (List.map snd t.Alloc.component_of)
  in
  Alcotest.(check int) "single component" 1 (List.length comps)

let test_alloc_full_rank () =
  let t = Alloc.run ~m:2 (Nestir.Paper_examples.example1 ()) in
  List.iter
    (fun (v, mv) ->
      Alcotest.(check int)
        ("rank of M[" ^ Access_graph.vertex_name v ^ "]")
        2
        (Ratmat.rank_of_mat mv))
    t.Alloc.allocs

let test_alloc_stencil_all_local () =
  let t = Alloc.run ~m:2 (Nestir.Paper_examples.stencil ()) in
  Alcotest.(check int) "no residuals" 0 (List.length t.Alloc.residual);
  Alcotest.(check bool) "verify" true (Reference.verify_alloc t)

let test_alloc_example5_all_local () =
  let t = Alloc.run ~m:2 (Nestir.Paper_examples.example5 ()) in
  Alcotest.(check int) "no residuals" 0 (List.length t.Alloc.residual);
  Alcotest.(check bool) "verify" true (Reference.verify_alloc t)

let test_alloc_matmul () =
  let t = Alloc.run ~m:2 (Nestir.Paper_examples.matmul ()) in
  (* matmul cannot be mapped on a 2-D grid without residuals *)
  Alcotest.(check bool) "has residuals" true (List.length t.Alloc.residual >= 1);
  Alcotest.(check bool) "verify" true (Reference.verify_alloc t)

let test_alloc_unimodular () =
  let t = Alloc.run ~m:2 (Nestir.Paper_examples.example1 ()) in
  let v = Mat.of_lists [ [ 1; 0 ]; [ 1; 1 ] ] in
  let t' = Alloc.apply_unimodular t ~component:0 v in
  Alcotest.(check bool) "still verifies" true (Reference.verify_alloc t');
  Alcotest.(check (list (pair string string))) "same locals" t.Alloc.local
    t'.Alloc.local;
  Alcotest.check_raises "rejects non-unimodular"
    (Invalid_argument "Alloc.apply_unimodular: not unimodular") (fun () ->
      ignore (Alloc.apply_unimodular t ~component:0 (Mat.of_lists [ [ 2; 0 ]; [ 0; 1 ] ])))

let test_alloc_comm_matrix () =
  let nest = Nestir.Paper_examples.example1 () in
  let t = Alloc.run ~m:2 nest in
  let s1 = Nestir.Loopnest.find_stmt nest "S1" in
  let f2 =
    List.find
      (fun (a : Nestir.Loopnest.access) -> a.Nestir.Loopnest.label = "F2")
      s1.Nestir.Loopnest.accesses
  in
  Alcotest.(check bool) "F2 comm matrix zero" true
    (Mat.is_zero (Reference.comm_matrix t s1 f2));
  let f3 =
    List.find
      (fun (a : Nestir.Loopnest.access) -> a.Nestir.Loopnest.label = "F3")
      s1.Nestir.Loopnest.accesses
  in
  Alcotest.(check bool) "F3 comm matrix non-zero" false
    (Mat.is_zero (Reference.comm_matrix t s1 f3))

let test_alloc_cross_tree_merge () =
  (* y -> S2 is a cross-tree edge with an isolated source; the merge of
     step 1c must make it local (Lemma 2 compatibility holds). *)
  let open Nestir.Loopnest in
  let nest =
    make ~name:"crosstree"
      ~arrays:
        [
          { array_name = "x"; dim = 2 };
          { array_name = "a"; dim = 3 };
          { array_name = "y"; dim = 2 };
        ]
      ~stmts:
        [
          {
            stmt_name = "S1";
            depth = 3;
            extent = [| 4; 4; 4 |];
            accesses =
              [
                access ~array_name:"a" ~label:"Fa1" Write (Nestir.Affine.identity 3);
                access ~array_name:"x" ~label:"Fx" Read
                  (Nestir.Affine.of_lists [ [ 1; 0; 0 ]; [ 0; 1; 0 ] ] [ 0; 0 ]);
              ];
          };
          {
            stmt_name = "S2";
            depth = 3;
            extent = [| 4; 4; 4 |];
            accesses =
              [
                access ~array_name:"a" ~label:"Fa2" Read
                  (Nestir.Affine.of_lists
                     [ [ 0; 0; 1 ]; [ 0; 1; 0 ]; [ 1; 0; 0 ] ]
                     [ 0; 0; 0 ]);
                access ~array_name:"y" ~label:"Fy" Write
                  (Nestir.Affine.of_lists [ [ 0; 1; 0 ]; [ 0; 0; 1 ] ] [ 0; 0 ]);
              ];
          };
        ]
  in
  let t = Alloc.run ~m:2 nest in
  Alcotest.(check bool) "verify" true (Reference.verify_alloc t);
  Alcotest.(check bool) "Fy local" true (Alloc.is_local t ~stmt:"S2" ~label:"Fy")

(* Step 1c case ii (paper §2.2): two accesses of [a] in one statement
   close a multiple path whose products differ by a rank-1 matrix.
   The second access is local exactly when a full-rank root survives
   the constraint [M_a (F2 - F1) = 0]: for m = 1 the root is forced to
   a multiple of (1, -1); for m = 2 no such root exists. *)
let test_alloc_deficient_rank_path () =
  let open Nestir.Loopnest in
  let nest =
    make ~name:"twopaths"
      ~arrays:[ { array_name = "a"; dim = 2 } ]
      ~stmts:
        [
          {
            stmt_name = "S";
            depth = 2;
            extent = [| 4; 4 |];
            accesses =
              [
                access ~array_name:"a" ~label:"F1" Write (Nestir.Affine.identity 2);
                access ~array_name:"a" ~label:"F2" Read
                  (Nestir.Affine.of_lists [ [ 1; 1 ]; [ 0; 2 ] ] [ 0; 0 ]);
              ];
          };
        ]
  in
  let t1 = Alloc.run ~m:1 nest in
  Alcotest.(check bool) "m = 1: both accesses local" true
    (Alloc.is_local t1 ~stmt:"S" ~label:"F1" && Alloc.is_local t1 ~stmt:"S" ~label:"F2");
  Alcotest.(check bool) "verify" true (Reference.verify_alloc t1);
  let ma = Alloc.alloc_of t1 (Access_graph.Array_v "a") in
  Alcotest.(check bool) "root constrained to (1, -1)" true
    (Mat.get ma 0 0 <> 0 && Mat.get ma 0 0 = - Mat.get ma 0 1);
  let t2 = Alloc.run ~m:2 nest in
  Alcotest.(check (list (pair string string))) "m = 2: F2 residual" [ ("S", "F2") ]
    t2.Alloc.residual

let alloc_nest_props =
  (* random nests built from unimodular accesses are always fully
     alignable, and verify must hold *)
  let gen =
    QCheck.Gen.(
      int_range 1 3 >>= fun nstmts ->
      let st = Random.State.make [| 7 |] in
      ignore st;
      list_size (return nstmts)
        (map2
           (fun ops1 ops2 -> (ops1, ops2))
           (int_range 0 1000) (int_range 0 1000)))
  in
  let arb = QCheck.make ~print:(fun _ -> "<nest>") gen in
  [
    prop ~count:60 "random unimodular nests verify" arb (fun seeds ->
        let open Nestir.Loopnest in
        let st = Random.State.make (Array.of_list (List.concat_map (fun (a, b) -> [ a; b ]) seeds)) in
        let stmts =
          List.mapi
            (fun i _ ->
              let f1 = Unimodular.random ~dim:2 ~ops:6 st in
              let f2 = Unimodular.random ~dim:2 ~ops:6 st in
              {
                stmt_name = Printf.sprintf "S%d" i;
                depth = 2;
                extent = [| 4; 4 |];
                accesses =
                  [
                    access ~array_name:"u" ~label:(Printf.sprintf "A%d" i) Write
                      (Nestir.Affine.linear f1);
                    access ~array_name:"w" ~label:(Printf.sprintf "B%d" i) Read
                      (Nestir.Affine.linear f2);
                  ];
              })
            seeds
        in
        let nest =
          make ~name:"random"
            ~arrays:[ { array_name = "u"; dim = 2 }; { array_name = "w"; dim = 2 } ]
            ~stmts
        in
        let t = Alloc.run ~m:2 nest in
        Reference.verify_alloc t);
  ]

(* ------------------------------------------------------------------ *)
(* Optimality                                                          *)
(* ------------------------------------------------------------------ *)

let workload_nest = function
  | "example1" -> Nestir.Paper_examples.example1 ()
  | "matmul" -> Nestir.Paper_examples.matmul ()
  | "gauss" -> Nestir.Paper_examples.gauss ()
  | "stencil" -> Nestir.Paper_examples.stencil ()
  | "transpose" -> Nestir.Paper_examples.transpose ()
  | "lu" -> Nestir.Paper_examples.lu ()
  | "seidel" -> Nestir.Paper_examples.seidel ()
  | _ -> assert false

let test_optimal_on_workloads () =
  (* the branching heuristic achieves the exhaustive optimum on every
     paper workload *)
  List.iter
    (fun name ->
      let h, o = Alignopt.heuristic_gap ~m:2 (workload_nest name) in
      Alcotest.(check int) (name ^ ": heuristic = optimal") o h)
    [ "example1"; "matmul"; "gauss"; "stencil"; "transpose"; "lu"; "seidel" ]

let test_feasibility_sanity () =
  let nest = Nestir.Paper_examples.example1 () in
  (* the heuristic's local set is feasible by construction *)
  let t = Alloc.run ~m:2 nest in
  Alcotest.(check bool) "heuristic set feasible" true
    (Alignopt.feasible ~m:2 nest t.Alloc.local);
  (* the full eligible set is not (example1 has residuals) *)
  Alcotest.(check bool) "everything at once infeasible" false
    (Alignopt.feasible ~m:2 nest (Alignopt.eligible ~m:2 nest));
  Alcotest.(check bool) "empty set feasible" true
    (Alignopt.feasible ~m:2 nest [])

let optimality_props =
  [
    prop ~count:25 "heuristic never beats the optimum (soundness)"
      (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 5000))
      (fun seed ->
        let nest = Reference.generated ~seed:(seed + 7_000_000) in
        if List.length (Alignopt.eligible ~m:2 nest) > 8 then true
        else
          match Alloc.run ~m:2 nest with
          | exception Failure _ -> true
          | t ->
            List.length t.Alloc.local <= Alignopt.optimal_local_count ~m:2 nest);
  ]

(* ------------------------------------------------------------------ *)
(* Components                                                          *)
(* ------------------------------------------------------------------ *)

let test_components () =
  let t = Alignment.Alloc.run ~m:2 (Nestir.Paper_examples.example1 ()) in
  match List.sort_uniq compare (List.map snd t.Alloc.component_of) with
  | [ 0 ] ->
    Alcotest.(check int) "all six vertices" 6 (List.length t.Alloc.component_of)
  | l -> Alcotest.failf "expected one component, got %d" (List.length l)

let test_components_disconnected () =
  (* two statements on two disjoint arrays: two components *)
  let open Nestir.Loopnest in
  let nest =
    make ~name:"disjoint"
      ~arrays:[ { array_name = "x"; dim = 2 }; { array_name = "y"; dim = 2 } ]
      ~stmts:
        [
          {
            stmt_name = "S0";
            depth = 2;
            extent = [| 4; 4 |];
            accesses = [ access ~array_name:"x" Write (Nestir.Affine.identity 2) ];
          };
          {
            stmt_name = "S1";
            depth = 2;
            extent = [| 4; 4 |];
            accesses = [ access ~array_name:"y" Write (Nestir.Affine.identity 2) ];
          };
        ]
  in
  let t = Alignment.Alloc.run ~m:2 nest in
  Alcotest.(check int) "two components" 2
    (List.length (List.sort_uniq compare (List.map snd t.Alloc.component_of)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "alignment"
    [
      ( "edmonds",
        [
          Alcotest.test_case "simple path" `Quick test_edmonds_simple;
          Alcotest.test_case "cycle breaking" `Quick test_edmonds_cycle;
          Alcotest.test_case "negative ignored" `Quick test_edmonds_negative_ignored;
          Alcotest.test_case "empty" `Quick test_edmonds_empty;
        ]
        @ edmonds_props );
      ( "access-graph",
        [
          Alcotest.test_case "structure (example 1)" `Quick test_graph_structure;
          Alcotest.test_case "orientations" `Quick test_graph_orientations;
          Alcotest.test_case "volume weights" `Quick test_graph_weights;
          Alcotest.test_case "weights make accesses local" `Quick
            test_graph_weight_makes_local;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "example 1 walkthrough" `Quick test_alloc_example1;
          Alcotest.test_case "full-rank allocations" `Quick test_alloc_full_rank;
          Alcotest.test_case "stencil all local" `Quick test_alloc_stencil_all_local;
          Alcotest.test_case "example 5 all local" `Quick
            test_alloc_example5_all_local;
          Alcotest.test_case "matmul has residuals" `Quick test_alloc_matmul;
          Alcotest.test_case "unimodular freedom" `Quick test_alloc_unimodular;
          Alcotest.test_case "comm matrices" `Quick test_alloc_comm_matrix;
          Alcotest.test_case "cross-tree merge" `Quick test_alloc_cross_tree_merge;
          Alcotest.test_case "deficient-rank path" `Quick test_alloc_deficient_rank_path;
        ]
        @ alloc_nest_props );
      ( "optimality",
        [
          Alcotest.test_case "heuristic = optimal on all workloads" `Slow
            test_optimal_on_workloads;
          Alcotest.test_case "feasibility sanity" `Quick test_feasibility_sanity;
        ]
        @ optimality_props );
      ( "components",
        [
          Alcotest.test_case "example 1: one component" `Quick test_components;
          Alcotest.test_case "disconnected nests" `Quick
            test_components_disconnected;
        ] );
    ]
