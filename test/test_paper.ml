(* The paper's claims end to end: program time against the Platonoff
   baseline, the baseline's total broadcasts, schedules read from the
   nest DSL, nest statistics, a machine model calibrated on the event
   simulator, Example 1 at other sizes, and the paper's T written as a
   word in the SL2(Z) generators. *)

open Linalg

let prop ?(count = 200) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* Program time                                                        *)
(* ------------------------------------------------------------------ *)

let test_progtime_example5 () =
  let model = Machine.Models.cm5 () in
  let w = Resopt.Workloads.find "example5" in
  let ours = Resopt.Pipeline.run ~schedule:w.Resopt.Workloads.schedule w.Resopt.Workloads.nest in
  let plat = Resopt.Platonoff.run ~schedule:w.Resopt.Workloads.schedule w.Resopt.Workloads.nest in
  let t_ours = Resopt.Progtime.of_pipeline ~model ours in
  let t_plat = Resopt.Progtime.of_platonoff ~model plat in
  Alcotest.(check (float 1e-9)) "ours moves nothing" 0.0
    (t_ours.Resopt.Progtime.hoisted_comm +. t_ours.Resopt.Progtime.per_step_comm);
  Alcotest.(check bool) "platonoff pays every timestep" true
    (t_plat.Resopt.Progtime.per_step_comm > 0.0);
  Alcotest.(check bool) "same compute" true
    (t_ours.Resopt.Progtime.compute = t_plat.Resopt.Progtime.compute);
  Alcotest.(check bool) "ours wins" true
    (t_ours.Resopt.Progtime.total < t_plat.Resopt.Progtime.total)

let test_progtime_vectorization_soundness () =
  (* an array that is written in the nest must not be hoisted *)
  let nest = Nestir.Paper_examples.seidel () in
  let schedule = Option.get (Nestir.Schedule.lamport nest) in
  let r = Resopt.Pipeline.run ~schedule nest in
  List.iter
    (fun (e : Resopt.Commplan.entry) ->
      if e.Resopt.Commplan.array_name = "A" then
        Alcotest.(check bool) "written array not vectorizable" false
          e.Resopt.Commplan.vectorizable)
    r.Resopt.Pipeline.plan

(* ------------------------------------------------------------------ *)
(* Stats and calibrated models                                         *)
(* ------------------------------------------------------------------ *)

let test_stats () =
  let s = Nestir.Stats.of_nest (Reference.example1 ~n:4 ~m:4) in
  Alcotest.(check int) "statements" 3 s.Nestir.Stats.statements;
  Alcotest.(check int) "accesses" 9 s.Nestir.Stats.accesses;
  Alcotest.(check int) "writes" 3 s.Nestir.Stats.writes;
  Alcotest.(check int) "full rank" 8 s.Nestir.Stats.full_rank_accesses;
  Alcotest.(check int) "max depth" 3 s.Nestir.Stats.max_depth;
  Alcotest.(check int) "instances" (16 + 128 + 128) s.Nestir.Stats.iterations

let test_calibrated_model () =
  let topo = Machine.Topology.mesh2d ~p:4 ~q:4 in
  let model =
    Machine.Models.of_calibration ~name:"cal" topo Machine.Eventsim.default_params
  in
  (* the fitted model behaves like a machine: translation beats the
     general pattern and broadcast stays sane *)
  Alcotest.(check bool) "alpha positive" true
    (model.Machine.Models.net.Machine.Netsim.alpha > 0.0);
  Alcotest.(check bool) "translation < general" true
    (Machine.Models.translation_time model ~bytes:256
     < Machine.Models.general_time model ~bytes:256)

(* ------------------------------------------------------------------ *)
(* Pipeline robustness at other sizes                                  *)
(* ------------------------------------------------------------------ *)

let test_example1_other_sizes () =
  List.iter
    (fun (n, m) ->
      let nest = Reference.example1 ~n ~m in
      let r = Resopt.Pipeline.run ~m:2 nest in
      Alcotest.(check bool)
        (Printf.sprintf "validated at %dx%d" n m)
        true (Resopt.Validate.is_valid r);
      let s = Resopt.Pipeline.summary r in
      Alcotest.(check int)
        (Printf.sprintf "same structure at %dx%d" n m)
        6
        (s.Resopt.Commplan.local + s.Resopt.Commplan.translations))
    [ (4, 4); (6, 10); (12, 8) ]

(* ------------------------------------------------------------------ *)
(* DSL schedules and the Platonoff total/partial ladder                *)
(* ------------------------------------------------------------------ *)

let test_dsl_schedule_roundtrip () =
  let nest = Nestir.Paper_examples.seidel () in
  let theta = Nestir.Schedule.theta (Option.get (Nestir.Schedule.lamport nest)) "S" in
  let row =
    String.concat " "
      (List.init (Linalg.Mat.cols theta) (fun j -> string_of_int (Linalg.Mat.get theta 0 j)))
  in
  let txt = Nestir.Dsl.print_with_schedule nest None ^ Printf.sprintf "schedule S [%s]\n" row in
  match Nestir.Dsl.parse_with_schedule txt with
  | Ok (nest2, Some s2) ->
    Alcotest.(check string) "nest round-trips" (Nestir.Dsl.print_with_schedule nest None)
      (Nestir.Dsl.print_with_schedule nest2 None);
    Alcotest.(check bool) "schedule round-trips" true
      (Linalg.Mat.equal (Nestir.Schedule.theta s2 "S") theta)
  | Ok (_, None) -> Alcotest.fail "schedule lost"
  | Error e -> Alcotest.fail e

let test_dsl_no_schedule () =
  match Nestir.Dsl.parse_with_schedule "nest x\narray A 2\nstmt S depth 2 extent 4 4\n  write A [1 0; 0 1]" with
  | Ok (_, None) -> ()
  | Ok (_, Some _) -> Alcotest.fail "phantom schedule"
  | Error e -> Alcotest.fail e

(* The CLI's [parse] and [compile] read a file's schedule lines: the
   written schedule reaches the optimizer and changes the plan, and a
   file without one prints what the all-parallel run prints. *)
let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/resopt_cli.exe"

let cli_stdout args =
  let out = Filename.temp_file "resopt_dsl" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let rc =
        Sys.command (Printf.sprintf "%s %s > %s" (Filename.quote cli) args (Filename.quote out))
      in
      Alcotest.(check int) (args ^ " exits 0") 0 rc;
      In_channel.with_open_bin out In_channel.input_all)

let with_dsl_file text f =
  let file = Filename.temp_file "resopt_dsl" ".resopt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin file (fun oc -> output_string oc text);
      f (Filename.quote file))

let test_cli_schedule () =
  (* x(i) read by every j: a broadcast while j is parallel, general
     traffic once the schedule makes j sequential *)
  let plain =
    "nest bc\narray A 2\narray x 1\nstmt S depth 2 extent 8 8\n\
    \  write A [1 0; 0 1]\n\
    \  read x [1 0]\n"
  in
  let written = plain ^ "schedule S [0 1]\n" in
  let nest, schedule = Result.get_ok (Nestir.Dsl.parse_with_schedule written) in
  let run schedule = Resopt.Pipeline.run ~m:2 ?schedule nest in
  let report schedule = Format.asprintf "%a@." Resopt.Pipeline.pp (run schedule) in
  Alcotest.(check bool) "the schedule changes the plan" true
    (report None <> report schedule);
  with_dsl_file plain (fun file ->
      Alcotest.(check string) "parse, no schedule line" (report None)
        (cli_stdout ("parse " ^ file)));
  with_dsl_file written (fun file ->
      Alcotest.(check string) "parse, schedule line" (report schedule)
        (cli_stdout ("parse " ^ file));
      let dir = Filename.temp_dir "resopt_dsl" "" in
      let out = cli_stdout (Printf.sprintf "compile %s -o %s" file (Filename.quote dir)) in
      (* the bundle's nest.resopt runs to the plan the bundle reports *)
      let bundled = Filename.concat dir "nest.resopt" in
      let reparsed = cli_stdout ("parse " ^ Filename.quote bundled) in
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir;
      Alcotest.(check string) "compile, schedule line"
        (Resopt.Report.summary_line (run schedule))
        (List.hd (String.split_on_char '\n' out));
      Alcotest.(check string) "compile, bundled nest.resopt" (report schedule) reparsed)

let test_platonoff_total_preserved () =
  (* every processor reads the same scalar cell: a total broadcast,
     which Platonoff's step 3a can keep total *)
  let open Nestir.Loopnest in
  let nest =
    make ~name:"totalb"
      ~arrays:[ { array_name = "x"; dim = 2 }; { array_name = "g"; dim = 2 } ]
      ~stmts:
        [
          {
            stmt_name = "S";
            depth = 2;
            extent = [| 6; 6 |];
            accesses =
              [
                access ~array_name:"x" ~label:"Fx" Write (Nestir.Affine.identity 2);
                access ~array_name:"g" ~label:"Fg" Read
                  (Nestir.Affine.of_lists [ [ 0; 0 ]; [ 0; 0 ] ] [ 0; 0 ]);
              ];
          };
        ]
  in
  let plat = Resopt.Platonoff.run ~m:2 ~schedule:(Nestir.Schedule.all_parallel nest) nest in
  Alcotest.(check (list (pair string string))) "reserved" [ ("S", "Fg") ]
    plat.Resopt.Platonoff.reserved;
  let entry =
    List.find (fun e -> e.Resopt.Commplan.label = "Fg") plat.Resopt.Platonoff.plan
  in
  match entry.Resopt.Commplan.classification with
  | Resopt.Commplan.Broadcast i ->
    Alcotest.(check bool) "total" true
      (i.Macrocomm.Broadcast.classification = Macrocomm.Broadcast.Total)
  | c -> Alcotest.failf "classified %s" (Resopt.Commplan.classification_name c)

(* ------------------------------------------------------------------ *)
(* SL2 words                                                           *)
(* ------------------------------------------------------------------ *)

let rec pow a n = if n = 0 then Mat.identity (Mat.rows a) else Mat.mul a (pow a (n - 1))

let test_sl2_generators () =
  Alcotest.(check int) "det S" 1 (Mat.det Decomp.Sl2word.s_mat);
  Alcotest.(check bool) "S^4 = Id" true
    (Mat.is_identity (pow Decomp.Sl2word.s_mat 4));
  Alcotest.(check bool) "(S T)^6 = Id" true
    (Mat.is_identity
       (pow (Mat.mul Decomp.Sl2word.s_mat (Decomp.Sl2word.t_mat 1)) 6))

let test_sl2_word_paper_t () =
  let t = Mat.of_lists [ [ 1; 2 ]; [ 3; 7 ] ] in
  let w = Decomp.Sl2word.word t in
  Alcotest.(check bool) "evaluates back" true (Mat.equal (Decomp.Sl2word.eval w) t);
  Alcotest.(check bool) "reasonable length" true (Decomp.Sl2word.length w <= 20)

let gen_det1 =
  QCheck.Gen.(
    list_size (int_range 0 6)
      (map2
         (fun is_l k -> if is_l then Decomp.Elementary.l2 k else Decomp.Elementary.u2 k)
         bool (int_range (-3) 3)))

let arb_det1 =
  QCheck.make
    ~print:(fun fs ->
      Format.asprintf "%a" Mat.pp_flat (Decomp.Elementary.product (Mat.identity 2 :: fs)))
    gen_det1

let sl2_props =
  [
    prop ~count:200 "words evaluate to their matrices" arb_det1 (fun fs ->
        let t = Decomp.Elementary.product (Mat.identity 2 :: fs) in
        Mat.equal (Decomp.Sl2word.eval (Decomp.Sl2word.word t)) t);
    prop ~count:200 "word length bounded by euclid length" arb_det1 (fun fs ->
        let t = Decomp.Elementary.product (Mat.identity 2 :: fs) in
        let w = Decomp.Sl2word.word t in
        (* each elementary factor contributes at most |k| + 4 letters *)
        let euclid = Decomp.Decompose.euclid t in
        let max_abs f =
          Array.fold_left (Array.fold_left (fun m x -> max m (abs x))) 0 (Mat.to_arrays f)
        in
        let bound = List.fold_left (fun acc f -> acc + 4 + max_abs f) 0 euclid in
        Decomp.Sl2word.length w <= bound + 1);
  ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "paper"
    [
      ( "progtime",
        [
          Alcotest.test_case "example 5 end-to-end" `Quick test_progtime_example5;
          Alcotest.test_case "vectorization soundness" `Quick
            test_progtime_vectorization_soundness;
        ] );
      ( "stats-calibration",
        [
          Alcotest.test_case "nest statistics" `Quick test_stats;
          Alcotest.test_case "calibrated model" `Quick test_calibrated_model;
          Alcotest.test_case "example 1 at other sizes" `Quick
            test_example1_other_sizes;
        ] );
      ( "dsl-schedule-platonoff",
        [
          Alcotest.test_case "schedule round-trip" `Quick
            test_dsl_schedule_roundtrip;
          Alcotest.test_case "no schedule" `Quick test_dsl_no_schedule;
          Alcotest.test_case "CLI parse and compile" `Quick test_cli_schedule;
          Alcotest.test_case "total broadcast preserved" `Quick
            test_platonoff_total_preserved;
        ] );
      ( "sl2word",
        [
          Alcotest.test_case "generators and relations" `Quick test_sl2_generators;
          Alcotest.test_case "paper T" `Quick test_sl2_word_paper_t;
        ]
        @ sl2_props );
    ]
