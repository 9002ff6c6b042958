(* Tests for the DMPC simulator: topology, routing, the contention
   cost model, collectives and the machine models. *)

open Machine

let prop ?(count = 200) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)
(* ------------------------------------------------------------------ *)

let test_topology_basics () =
  let t = Topology.mesh2d ~p:8 ~q:4 in
  Alcotest.(check int) "size" 32 (Topology.size t);
  Alcotest.(check int) "ndims" 2 (Topology.ndims t);
  Alcotest.(check int) "diameter" 10 (Topology.diameter t);
  Alcotest.(check int) "rank of (2,3)" 11 (Topology.rank_of t [| 2; 3 |]);
  Alcotest.(check (array int)) "coords of 11" [| 2; 3 |] (Topology.coords_of t 11)

let test_topology_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Topology.make: no dimensions")
    (fun () -> ignore (Topology.make [||]));
  let t = Topology.line 4 in
  Alcotest.check_raises "rank out of range"
    (Invalid_argument "Topology.rank_of: out of range") (fun () ->
      ignore (Topology.rank_of t [| 4 |]))

let topology_props =
  let arb =
    QCheck.make
      ~print:(fun (p, q, r) -> Printf.sprintf "%dx%d rank %d" p q r)
      QCheck.Gen.(
        int_range 1 6 >>= fun p ->
        int_range 1 6 >>= fun q ->
        map (fun r -> (p, q, r)) (int_range 0 ((p * q) - 1)))
  in
  [
    prop "rank/coords roundtrip" arb (fun (p, q, r) ->
        let t = Topology.mesh2d ~p ~q in
        Topology.rank_of t (Topology.coords_of t r) = r);
  ]

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

let test_route_xy () =
  let t = Topology.mesh2d ~p:4 ~q:4 in
  let src = Topology.rank_of t [| 0; 0 |] and dst = Topology.rank_of t [| 2; 3 |] in
  let path = Route.path t ~src ~dst in
  Alcotest.(check int) "length = manhattan" 5 (List.length path);
  (* dimension order: the first hops move along dimension 0 *)
  (match path with
  | (a, b) :: _ ->
    let ca = Topology.coords_of t a and cb = Topology.coords_of t b in
    Alcotest.(check int) "first hop changes dim 0" (ca.(0) + 1) cb.(0);
    Alcotest.(check int) "dim 1 unchanged" ca.(1) cb.(1)
  | [] -> Alcotest.fail "non-empty");
  Alcotest.(check int) "hops" 5 (Route.hops t ~src ~dst);
  Alcotest.(check (list (pair int int))) "self route empty" []
    (Route.path t ~src ~dst:src)

let route_props =
  let arb =
    QCheck.make
      ~print:(fun (s, d) -> Printf.sprintf "%d->%d" s d)
      QCheck.Gen.(pair (int_range 0 31) (int_range 0 31))
  in
  [
    prop "path length = manhattan distance" arb (fun (s, d) ->
        let t = Topology.mesh2d ~p:8 ~q:4 in
        List.length (Route.path t ~src:s ~dst:d) = Route.hops t ~src:s ~dst:d);
    prop "path is connected" arb (fun (s, d) ->
        let t = Topology.mesh2d ~p:8 ~q:4 in
        let path = Route.path t ~src:s ~dst:d in
        let rec chained prev = function
          | [] -> true
          | (a, b) :: rest -> a = prev && chained b rest
        in
        match path with
        | [] -> s = d
        | (a, _) :: _ -> a = s && chained s path
                         && (match List.rev path with (_, b) :: _ -> b = d | [] -> false));
  ]

(* ------------------------------------------------------------------ *)
(* Netsim                                                              *)
(* ------------------------------------------------------------------ *)

let params = { Netsim.alpha = 10.0; beta = 0.1; hop = 0.4 }

let test_netsim_empty () =
  let t = Topology.mesh2d ~p:4 ~q:4 in
  let s = Netsim.run t params [] in
  Alcotest.(check (float 0.0)) "zero time" 0.0 s.Netsim.time;
  let local = [ Message.make ~src:3 ~dst:3 ~bytes:100 ] in
  Alcotest.(check (float 0.0)) "local free" 0.0 (Netsim.run t params local).Netsim.time

let test_netsim_single () =
  let t = Topology.line 4 in
  let s = Netsim.run t params [ Message.make ~src:0 ~dst:1 ~bytes:100 ] in
  (* alpha + beta*100 + hop*1 *)
  Alcotest.(check (float 1e-9)) "time" (10.0 +. 10.0 +. 0.4) s.Netsim.time;
  Alcotest.(check int) "one message" 1 s.Netsim.messages

let test_netsim_coalescing () =
  let t = Topology.line 4 in
  let msgs =
    [ Message.make ~src:0 ~dst:1 ~bytes:50; Message.make ~src:0 ~dst:1 ~bytes:50 ]
  in
  let merged = Netsim.run t params msgs in
  Alcotest.(check int) "coalesced to one" 1 merged.Netsim.messages;
  Alcotest.(check (float 1e-9)) "one startup" (10.0 +. 10.0 +. 0.4)
    merged.Netsim.time;
  let raw = Netsim.run ~coalesce:false t params msgs in
  Alcotest.(check int) "uncoalesced" 2 raw.Netsim.messages;
  Alcotest.(check (float 1e-9)) "two startups" (20.0 +. 10.0 +. 0.4)
    raw.Netsim.time

let test_netsim_contention () =
  (* two messages share the 1->2 link: its load doubles *)
  let t = Topology.line 4 in
  let msgs =
    [ Message.make ~src:0 ~dst:3 ~bytes:100; Message.make ~src:1 ~dst:2 ~bytes:100 ]
  in
  let s = Netsim.run t params msgs in
  Alcotest.(check int) "max link load" 200 s.Netsim.max_link_load;
  Alcotest.(check int) "max hops" 3 s.Netsim.max_hops

let test_netsim_link_loads () =
  let t = Topology.line 3 in
  let loads =
    Netsim.link_loads t [ Message.make ~src:0 ~dst:2 ~bytes:10 ]
  in
  Alcotest.(check int) "two links" 2 (List.length loads);
  List.iter (fun (_, l) -> Alcotest.(check int) "load 10" 10 l) loads

let test_netsim_torus_loads () =
  (* pins the load accumulation shared by [run] and [link_loads]: a +1
     shift on a 4x4 torus is one wrap-aware hop per node, so 16
     messages put exactly 10 bytes on each of 16 distinct links *)
  let t = Topology.make ~torus:true [| 4; 4 |] in
  let place v = Topology.rank_of t v in
  let msgs =
    Patterns.translation_messages ~vgrid:[| 4; 4 |] ~shift:[| 1; 0 |] ~bytes:10
      ~place ()
  in
  let loads = Netsim.link_loads t msgs in
  Alcotest.(check int) "16 distinct links" 16 (List.length loads);
  Alcotest.(check int) "total bytes x hops" 160
    (List.fold_left (fun acc (_, l) -> acc + l) 0 loads);
  List.iter (fun (_, l) -> Alcotest.(check int) "each link 10" 10 l) loads;
  let s = Netsim.run t params msgs in
  Alcotest.(check int) "run agrees: hottest link" 10 s.Netsim.max_link_load;
  Alcotest.(check int) "run agrees: total hops" 16 s.Netsim.total_hops

(* ------------------------------------------------------------------ *)
(* Collectives and models                                              *)
(* ------------------------------------------------------------------ *)

let test_collective_monotone () =
  let small = Topology.mesh2d ~p:2 ~q:2 and big = Topology.mesh2d ~p:8 ~q:8 in
  Alcotest.(check bool) "bigger machine, slower broadcast" true
    (Collective.broadcast big params ~bytes:64
     > Collective.broadcast small params ~bytes:64);
  Alcotest.(check bool) "partial cheaper than total" true
    (Collective.partial_broadcast big params ~axis:0 ~bytes:64
     <= Collective.broadcast big params ~bytes:64)

let test_models_table1_shape () =
  (* the Table 1 ordering: reduction <= broadcast << translation <<
     general, with an order of magnitude between broadcast and
     general *)
  let m = Models.cm5 () in
  let b = 256 in
  let red = Models.reduce_time m ~bytes:b in
  let bc = Models.broadcast_time m ~bytes:b in
  let tr = Models.translation_time m ~bytes:b in
  let gen = Models.general_time m ~bytes:b in
  Alcotest.(check bool) "red <= bc" true (red <= bc);
  Alcotest.(check bool) "bc < trans" true (bc < tr);
  Alcotest.(check bool) "trans < general" true (tr < gen);
  Alcotest.(check bool) "general >= 10x broadcast" true (gen >= 10.0 *. bc)

let test_models_paragon_software () =
  let m = Models.paragon () in
  Alcotest.(check bool) "no hardware collectives" true (m.Models.hw = None);
  (* the log-depth software tree must beat the naive sequential
     broadcast (root sends P-1 individual messages) *)
  let naive =
    float_of_int (Topology.size m.Models.topo - 1)
    *. (m.Models.net.Netsim.alpha +. (m.Models.net.Netsim.beta *. 256.0))
  in
  Alcotest.(check bool) "tree broadcast < naive" true
    (Models.broadcast_time m ~bytes:256 < naive)

(* ------------------------------------------------------------------ *)
(* Patterns                                                            *)
(* ------------------------------------------------------------------ *)

let test_patterns_wrap_bijective () =
  (* a det-1 flow is a bijection of the virtual torus: source and
     destination multisets coincide *)
  let vgrid = [| 6; 4 |] in
  let flow = Linalg.Mat.of_lists [ [ 1; 1 ]; [ 0; 1 ] ] in
  let place v = (v.(0) * 4) + v.(1) in
  let msgs = Patterns.affine_messages ~vgrid ~flow ~bytes:1 ~place () in
  Alcotest.(check int) "one message per virtual proc" 24 (List.length msgs);
  let srcs = List.sort compare (List.map (fun m -> m.Message.src) msgs) in
  let dsts = List.sort compare (List.map (fun m -> m.Message.dst) msgs) in
  Alcotest.(check (list int)) "permutation" srcs dsts

let test_patterns_clip () =
  let vgrid = [| 4; 4 |] in
  let flow = Linalg.Mat.of_lists [ [ 1; 0 ]; [ 0; 1 ] ] in
  let place v = (v.(0) * 4) + v.(1) in
  let msgs =
    Patterns.affine_messages ~boundary:`Clip ~vgrid ~flow
      ~offset:[| 2; 0 |] ~bytes:1 ~place ()
  in
  (* shift by 2 clips half the grid *)
  Alcotest.(check int) "half clipped" 8 (List.length msgs)

let test_patterns_translation () =
  let vgrid = [| 4; 4 |] in
  let place v = (v.(0) * 4) + v.(1) in
  let msgs = Patterns.translation_messages ~vgrid ~shift:[| 1; 0 |] ~bytes:1 ~place () in
  Alcotest.(check int) "all procs" 16 (List.length msgs)

(* ------------------------------------------------------------------ *)

(* [--topo] byte-identity guards, via the real CLI binary: the default
   paragon machine IS torus:8x8, so naming it explicitly must not move
   a single byte; and a non-grid topology must not disturb runs that
   never asked for one. *)

let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/resopt_cli.exe"

let cli_output args =
  let out = Filename.temp_file "resopt_topo" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s > %s 2>&1" (Filename.quote cli) args
          (Filename.quote out)
      in
      let rc = Sys.command cmd in
      let ic = open_in_bin out in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (rc, s))

let test_topo_default_identity () =
  let rc0, plain = cli_output "report example1 --net" in
  let rc1, explicit = cli_output "report example1 --net --topo torus:8x8" in
  Alcotest.(check int) "plain exits 0" 0 rc0;
  Alcotest.(check int) "explicit exits 0" 0 rc1;
  Alcotest.(check string) "--topo torus:8x8 is byte-identical to the default"
    plain explicit;
  let rc2, f_plain =
    cli_output "report example1 --net --faults down:3-4 --map greedy"
  in
  let rc3, f_explicit =
    cli_output
      "report example1 --net --faults down:3-4 --map greedy --topo torus:8x8"
  in
  Alcotest.(check int) "faulted plain exits 0" 0 rc2;
  Alcotest.(check int) "faulted explicit exits 0" 0 rc3;
  Alcotest.(check string)
    "byte-identical with --faults and --map composed" f_plain f_explicit

let test_topo_bad_spec_rejected () =
  let rc, out = cli_output "simulate --topo bogus" in
  Alcotest.(check bool) "non-zero exit" true (rc <> 0);
  Alcotest.(check bool) "error names the grammar" true
    (try
       ignore (Str.search_forward (Str.regexp_string "bad topology spec") out 0);
       true
     with Not_found -> false)

(* A grid dimension below 1 is a usage error that names its flag, not
   a crash inside the optimizer or a silently empty answer. *)
let test_zero_dimension_rejected () =
  List.iter
    (fun (args, flag) ->
      let rc, out = cli_output args in
      Alcotest.(check bool) (args ^ ": non-zero exit") true (rc <> 0);
      Alcotest.(check bool)
        (args ^ ": error names " ^ flag)
        true
        (try
           ignore (Str.search_forward (Str.regexp_string flag) out 0);
           true
         with Not_found -> false))
    [
      ("run example1 -m 0", "option '-m'");
      ("bounds example1 -m 0", "option '-m'");
      ("sweep --ms 0", "option '--ms'");
    ]

(* Byte goldens (MD5 of stdout + stderr) of every CLI surface that
   reads a plan's residual traffic.  The traffic fold is shared code;
   a refactor of it must not move a byte of these outputs. *)
let traffic_goldens =
  [
    ( "report matmul --net --bounds --map greedy --topo fattree:3:4",
      "d7b89c882b96c04c4e3884ab42ef48bc" );
    ("chaos -n 8", "836bc9721e7e4d01665d941a83f6eafd");
    ("chaos -n 6 --topo dragonfly:4:4:2 --jobs 2", "49ea4d24ec6370c8af147b96c5e7dbea");
    ("run example1 --map search --faults flaky:0.05", "bf417754b05dbdf44e11871eb48ce6f0");
    ("run example2 --map greedy --topo fattree:3:4", "cf1d6549772dff17ee3bddbd42586273");
    ("bounds example1 --map search", "c88a201f3a950005e149ebfcd1c791ae");
    ("bounds stencil --topo dragonfly:4:4:2 --bytes 8", "284d277f55845f2d35facff3106c0bfa");
    ("spmd example1", "3721d79b6c8b1f24e4099375380db918");
    ("autodim example1", "514dddd1a8ef50e86c36d1b112862d75");
  ]

let test_traffic_goldens () =
  List.iter
    (fun (args, digest) ->
      let rc, out = cli_output args in
      Alcotest.(check int) (args ^ " exits 0") 0 rc;
      Alcotest.(check string) args digest (Digest.to_hex (Digest.string out)))
    traffic_goldens;
  (* the dashboard file, and the report that names it *)
  let html = Filename.temp_file "resopt_golden" ".html" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove html with Sys_error _ -> ())
    (fun () ->
      let rc, out =
        cli_output
          ("report example1 --net --bounds --map search --html "
         ^ Filename.quote html)
      in
      Alcotest.(check int) "report --html exits 0" 0 rc;
      let out =
        Str.global_replace (Str.regexp_string html) "FILE" out
      in
      Alcotest.(check string) "report example1 --net --bounds --map search"
        "01da4e6ce6fa840a45ec581662dd7e5d"
        (Digest.to_hex (Digest.string out));
      Alcotest.(check string) "report --html dashboard"
        "05e817bf443d1a98b42e5c7494d67fbf"
        (Digest.to_hex (Digest.file html)))

let () =
  Alcotest.run "machine"
    [
      ( "topology",
        [
          Alcotest.test_case "basics" `Quick test_topology_basics;
          Alcotest.test_case "errors" `Quick test_topology_errors;
        ]
        @ topology_props );
      ( "route",
        [ Alcotest.test_case "xy discipline" `Quick test_route_xy ] @ route_props );
      ( "netsim",
        [
          Alcotest.test_case "empty and local" `Quick test_netsim_empty;
          Alcotest.test_case "single message" `Quick test_netsim_single;
          Alcotest.test_case "coalescing" `Quick test_netsim_coalescing;
          Alcotest.test_case "link contention" `Quick test_netsim_contention;
          Alcotest.test_case "link loads" `Quick test_netsim_link_loads;
          Alcotest.test_case "torus load pin" `Quick test_netsim_torus_loads;
        ] );
      ( "models",
        [
          Alcotest.test_case "collective monotone" `Quick test_collective_monotone;
          Alcotest.test_case "table 1 shape" `Quick test_models_table1_shape;
          Alcotest.test_case "paragon software" `Quick test_models_paragon_software;
        ] );
      ( "patterns",
        [
          Alcotest.test_case "wrap bijective" `Quick test_patterns_wrap_bijective;
          Alcotest.test_case "clip boundary" `Quick test_patterns_clip;
          Alcotest.test_case "translation" `Quick test_patterns_translation;
        ] );
      ( "topo-flag",
        [
          Alcotest.test_case "default identity" `Quick test_topo_default_identity;
          Alcotest.test_case "bad spec rejected" `Quick test_topo_bad_spec_rejected;
          Alcotest.test_case "zero dimension rejected" `Quick
            test_zero_dimension_rejected;
        ] );
      ( "traffic-goldens",
        [ Alcotest.test_case "residual traffic surfaces" `Quick test_traffic_goldens ] );
    ]
