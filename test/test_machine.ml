(* Tests for the DMPC simulator: topology, routing, the contention
   cost model, collectives, the machine models and their calibration
   on the event simulator. *)

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
  let t = Topology.make [| 4 |] in
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
  let path = Topology.route t ~src ~dst in
  Alcotest.(check int) "length = manhattan" 5 (List.length path);
  (* dimension order: the first hops move along dimension 0 *)
  (match path with
  | (a, b) :: _ ->
    let ca = Topology.coords_of t a and cb = Topology.coords_of t b in
    Alcotest.(check int) "first hop changes dim 0" (ca.(0) + 1) cb.(0);
    Alcotest.(check int) "dim 1 unchanged" ca.(1) cb.(1)
  | [] -> Alcotest.fail "non-empty");
  Alcotest.(check int) "hops" 5 (Topology.distance t ~src ~dst);
  Alcotest.(check (list (pair int int))) "self route empty" []
    (Topology.route t ~src ~dst:src)

let route_props =
  let arb =
    QCheck.make
      ~print:(fun (s, d) -> Printf.sprintf "%d->%d" s d)
      QCheck.Gen.(pair (int_range 0 31) (int_range 0 31))
  in
  [
    prop "path length = manhattan distance" arb (fun (s, d) ->
        let t = Topology.mesh2d ~p:8 ~q:4 in
        List.length (Topology.route t ~src:s ~dst:d) = Topology.distance t ~src:s ~dst:d);
    prop "path is connected" arb (fun (s, d) ->
        let t = Topology.mesh2d ~p:8 ~q:4 in
        let path = Topology.route t ~src:s ~dst:d in
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
  let s = Reference.price t params [] in
  Alcotest.(check (float 0.0)) "zero time" 0.0 s.Netsim.time;
  let local = [ Message.make ~src:3 ~dst:3 ~bytes:100 ] in
  Alcotest.(check (float 0.0)) "local free" 0.0 (Reference.price t params local).Netsim.time

let test_netsim_single () =
  let t = Topology.make [| 4 |] in
  let s = Reference.price t params [ Message.make ~src:0 ~dst:1 ~bytes:100 ] in
  (* alpha + beta*100 + hop*1 *)
  Alcotest.(check (float 1e-9)) "time" (10.0 +. 10.0 +. 0.4) s.Netsim.time;
  Alcotest.(check int) "one message" 1 s.Netsim.messages

let test_netsim_coalescing () =
  let t = Topology.make [| 4 |] in
  let msgs =
    [ Message.make ~src:0 ~dst:1 ~bytes:50; Message.make ~src:0 ~dst:1 ~bytes:50 ]
  in
  let merged = Reference.price t params msgs in
  Alcotest.(check int) "coalesced to one" 1 merged.Netsim.messages;
  Alcotest.(check (float 1e-9)) "one startup" (10.0 +. 10.0 +. 0.4)
    merged.Netsim.time;
  let raw = Reference.price ~coalesce:false t params msgs in
  Alcotest.(check int) "uncoalesced" 2 raw.Netsim.messages;
  Alcotest.(check (float 1e-9)) "two startups" (20.0 +. 10.0 +. 0.4)
    raw.Netsim.time

let test_netsim_contention () =
  (* two messages share the 1->2 link: its load doubles *)
  let t = Topology.make [| 4 |] in
  let msgs =
    [ Message.make ~src:0 ~dst:3 ~bytes:100; Message.make ~src:1 ~dst:2 ~bytes:100 ]
  in
  let s = Reference.price t params msgs in
  Alcotest.(check int) "max link load" 200 s.Netsim.max_link_load;
  Alcotest.(check int) "max hops" 3 s.Netsim.max_hops

let test_netsim_link_loads () =
  let t = Topology.make [| 3 |] in
  let loads =
    Netsim.link_loads ~faults:Fault.none t
      (Message.of_list [ Message.make ~src:0 ~dst:2 ~bytes:10 ])
  in
  Alcotest.(check int) "two links" 2 (List.length loads);
  List.iter (fun (_, l) -> Alcotest.(check int) "load 10" 10 l) loads

let test_netsim_torus_loads () =
  (* pins the load accumulation shared by [price] and [link_loads]: a +1
     shift on a 4x4 torus is one wrap-aware hop per node, so 16
     messages put exactly 10 bytes on each of 16 distinct links *)
  let t = Topology.make ~torus:true [| 4; 4 |] in
  let place v = Topology.rank_of t v in
  let msgs =
    Patterns.translation_messages ~boundary:`Wrap ~vgrid:[| 4; 4 |] ~shift:[| 1; 0 |]
      ~bytes:10 ~place ()
  in
  let loads = Netsim.link_loads ~faults:Fault.none t (Message.of_list msgs) in
  Alcotest.(check int) "16 distinct links" 16 (List.length loads);
  Alcotest.(check int) "total bytes x hops" 160
    (List.fold_left (fun acc (_, l) -> acc + l) 0 loads);
  List.iter (fun (_, l) -> Alcotest.(check int) "each link 10" 10 l) loads;
  let s = Reference.price t params msgs in
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
  let msgs = Reference.affine_messages ~vgrid ~flow ~bytes:1 ~place () in
  Alcotest.(check int) "one message per virtual proc" 24 (List.length msgs);
  let srcs = List.sort compare (List.map (fun m -> m.Message.src) msgs) in
  let dsts = List.sort compare (List.map (fun m -> m.Message.dst) msgs) in
  Alcotest.(check (list int)) "permutation" srcs dsts;
  let succ = Patterns.successors ~vgrid flow in
  Alcotest.(check (list int)) "successors permute the cells" (List.init 24 Fun.id)
    (List.sort compare (Array.to_list succ))

let test_patterns_clip () =
  let vgrid = [| 4; 4 |] in
  let flow = Linalg.Mat.of_lists [ [ 1; 0 ]; [ 0; 1 ] ] in
  let place v = (v.(0) * 4) + v.(1) in
  let msgs =
    Reference.affine_messages ~boundary:`Clip ~vgrid ~flow
      ~offset:[| 2; 0 |] ~bytes:1 ~place ()
  in
  (* shift by 2 clips half the grid *)
  Alcotest.(check int) "half clipped" 8 (List.length msgs)

let test_patterns_translation () =
  let vgrid = [| 4; 4 |] in
  let place v = (v.(0) * 4) + v.(1) in
  let msgs =
    Patterns.translation_messages ~boundary:`Wrap ~vgrid ~shift:[| 1; 0 |] ~bytes:1
      ~place ()
  in
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
      "a8ee0983657a120d0a364eb11c91badf" );
    ( "report transpose --net --bounds --map greedy --topo fattree:3:4",
      "ab952a97697409c3dbf760bca77dd184" );
    ("chaos -n 8", "836bc9721e7e4d01665d941a83f6eafd");
    ("chaos -n 6 --topo dragonfly:4:4:2 --jobs 2", "49ea4d24ec6370c8af147b96c5e7dbea");
    ("run example1 --map search --faults flaky:0.05", "bf417754b05dbdf44e11871eb48ce6f0");
    ("run example2 --map greedy --topo fattree:3:4", "cf1d6549772dff17ee3bddbd42586273");
    ("bounds example1 --map search", "c88a201f3a950005e149ebfcd1c791ae");
    ("bounds stencil --topo dragonfly:4:4:2 --bytes 8", "435cbf66e83b03a366c3d296bc790f88");
    ("bounds transpose --topo dragonfly:4:4:2 --bytes 8", "bf0df79d90a27a93a8e7c0bdea97b955");
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

(* ------------------------------------------------------------------ *)
(* Compiled topologies                                                 *)
(* ------------------------------------------------------------------ *)

(* Four domains race to compile and route a spec nothing else in this
   executable uses, each from its own topology value.  Every domain
   must read the same routes, and the ids must name exactly the hops
   of [Topology.route]. *)
let test_compiled_shared () =
  let fresh () = Result.get_ok (Topology.of_string "torus:5x6") in
  let n = 30 in
  let pairs = List.init (n * n) (fun k -> (k / n, k mod n)) in
  let routes_of () =
    let c = Compiled.get (fresh ()) in
    List.map (fun (src, dst) -> Compiled.route c ~src ~dst) pairs
  in
  let raced =
    List.map Domain.join (List.init 4 (fun _ -> Domain.spawn routes_of))
  in
  let topo = fresh () in
  let c = Compiled.get topo in
  let hops (src, dst) =
    Array.to_list (Array.map (Compiled.link c) (Compiled.route c ~src ~dst))
  in
  Alcotest.(check (list (list (pair int int))))
    "ids name the routed hops"
    (List.map (fun (src, dst) -> Topology.route topo ~src ~dst) pairs)
    (List.map hops pairs);
  List.iter
    (Alcotest.(check (list (array int))) "every domain reads the same routes"
       (routes_of ()))
    raced;
  Alcotest.(check int) "two directed ids per link"
    (2 * List.length (Topology.links topo))
    (Compiled.nlinks c);
  Alcotest.(check bool) "ids in endpoint order" true
    (List.for_all
       (fun id -> Compiled.link c id < Compiled.link c (id + 1))
       (List.init (Compiled.nlinks c - 1) Fun.id));
  Alcotest.(check (array (array int))) "distance table"
    (Array.init n (fun src ->
         Array.init n (fun dst -> Topology.distance topo ~src ~dst)))
    (Compiled.distances c)

(* ------------------------------------------------------------------ *)
(* Translation shift                                                   *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float

(* The shift priced once per process equals the shift priced afresh,
   on the first call and on every later one. *)
let test_translation_shift () =
  List.iter
    (fun spec ->
      let model = Models.of_topo (Result.get_ok (Topology.of_string spec)) in
      List.iter
        (fun bytes ->
          let want = bits (Reference.shift_time model ~bytes) in
          let label = Printf.sprintf "%s, %d bytes" spec bytes in
          Alcotest.(check int64) label want (bits (Models.translation_time model ~bytes));
          Alcotest.(check int64) (label ^ ", again") want
            (bits (Models.translation_time model ~bytes)))
        [ 0; 1; 64; 256 ])
    [ "mesh:8x4"; "torus:8x8"; "fattree:3:4"; "dragonfly:4:4:2" ];
  (* the wire parameters are part of the key *)
  let cm5 = Models.cm5 () and paragon = Models.paragon () in
  Alcotest.(check int64) "cm5 wire" (bits (Reference.shift_time cm5 ~bytes:64))
    (bits (Models.translation_time cm5 ~bytes:64));
  Alcotest.(check int64) "paragon wire" (bits (Reference.shift_time paragon ~bytes:64))
    (bits (Models.translation_time paragon ~bytes:64))

(* Four domains, released together, ask for the shift of a spec
   nothing else prices: each reads the uncached price, and Netsim ran
   once. *)
let test_translation_race () =
  let model () = Models.of_topo (Result.get_ok (Topology.of_string "torus:7x3")) in
  let waiting = Atomic.make 4 in
  let price () =
    let m = model () in
    Atomic.decr waiting;
    while Atomic.get waiting > 0 do
      Domain.cpu_relax ()
    done;
    Models.translation_time m ~bytes:48
  in
  Obs.reset ();
  Obs.enable ();
  let raced, runs =
    Fun.protect ~finally:Obs.disable (fun () ->
        let raced = List.map Domain.join (List.init 4 (fun _ -> Domain.spawn price)) in
        (raced, Obs.counter "netsim.runs"))
  in
  Obs.reset ();
  let want = bits (Reference.shift_time (model ()) ~bytes:48) in
  List.iter (fun t -> Alcotest.(check int64) "every domain reads the price" want (bits t)) raced;
  Alcotest.(check int) "priced once" 1 runs

(* ------------------------------------------------------------------ *)
(* Netsim differential                                                 *)
(* ------------------------------------------------------------------ *)

(* [Reference] holds the pricer Netsim used before topologies were
   compiled to link ids: a hop list per message and a Hashtbl keyed by
   directed link.  The compiled pricer must agree with it on the
   stats and on the per-link loads of [link_loads]. *)

type fault_kind = Healthy | Flaky | Severed

let fault_kind_name = function
  | Healthy -> "healthy"
  | Flaky -> "flaky"
  | Severed -> "severed"

(* A fault model of the given kind over random links of [topo]:
   flaky adds per-link drops and degradation to a global drop rate;
   severed cuts one or two links for the whole run, sometimes kills a
   node, and sometimes adds a global drop rate on top. *)
let gen_faults topo kind =
  let open QCheck.Gen in
  let links = Array.of_list (List.map fst (Topology.links topo)) in
  let link = map (fun i -> links.(i)) (int_bound (Array.length links - 1)) in
  let prob = oneofl [ 0.05; 0.3; 0.5; 0.9 ] in
  let maybe g = oneof [ return []; map (fun x -> [ x ]) g ] in
  match kind with
  | Healthy -> return Fault.none
  | Flaky ->
    map3
      (fun p local degraded ->
        Fault.make ~seed:7 ((Fault.Flaky { link = None; prob = p } :: local) @ degraded))
      prob
      (maybe (map2 (fun l p -> Fault.Flaky { link = Some l; prob = p }) link prob))
      (maybe (map (fun l -> Fault.Degraded { link = Some l; factor = 0.5 }) link))
  | Severed ->
    map3
      (fun cuts dead flaky ->
        Fault.make ~seed:7
          (List.map
             (fun (a, b) ->
               Fault.Link_down { a; b; from_cycle = 0; until_cycle = max_int })
             cuts
          @ dead @ flaky))
      (list_size (int_range 1 2) link)
      (maybe (map (fun r -> Fault.Dead_node r) (int_bound (Topology.size topo - 1))))
      (maybe (map (fun p -> Fault.Flaky { link = None; prob = p }) prob))

(* Messages over a handful of host pairs, so coalescing has
   duplicates to merge; pairs may be local; bytes may be zero. *)
let show_message (m : Message.t) = Printf.sprintf "%d -> %d (%dB)" m.src m.dst m.bytes

let gen_messages topo =
  let open QCheck.Gen in
  let host = int_bound (Topology.size topo - 1) in
  list_size (int_range 1 8) (pair host host) >>= fun pairs ->
  let pairs = Array.of_list pairs in
  list_size (int_bound 40)
    (map2
       (fun i bytes ->
         let src, dst = pairs.(i) in
         Message.make ~src ~dst ~bytes)
       (int_bound (Array.length pairs - 1))
       (frequency [ (1, return 0); (4, int_bound 300) ]))

let netsim_diff spec =
  let topo = Result.get_ok (Topology.of_string spec) in
  let arb =
    QCheck.make
      ~print:(fun (coalesce, kind, faults, msgs) ->
        Printf.sprintf "%s coalesce=%b %s [%s] [%s]" spec coalesce
          (fault_kind_name kind) (Fault.label faults)
          (String.concat "; "
             (List.map show_message msgs)))
      QCheck.Gen.(
        bool >>= fun coalesce ->
        oneofl [ Healthy; Flaky; Severed ] >>= fun kind ->
        map2
          (fun faults msgs -> (coalesce, kind, faults, msgs))
          (gen_faults topo kind) (gen_messages topo))
  in
  prop ~count:300 spec arb (fun (coalesce, _, faults, msgs) ->
      Reference.price ~coalesce ~faults topo params msgs
      = Reference.run ~coalesce ~faults topo params msgs
      && Netsim.link_loads ~faults topo (Message.of_list msgs)
         = Reference.link_loads faults topo msgs)

let netsim_diff_props =
  List.map netsim_diff
    [
      "mesh:8x4";
      "torus:4x4x2";
      "fattree:3:4";
      "dragonfly:4:4:2";
      "dragonfly:4:4:2:adaptive";
    ]

(* ------------------------------------------------------------------ *)
(* Coalesced replay order                                              *)
(* ------------------------------------------------------------------ *)

(* Eventsim keys its drop decisions on injection index, so the order a
   coalesced volume replays its pairs in is observable.  It must be
   the order message lists were coalesced in ([Reference.coalesce]),
   local pairs included: a coalesced volume and the uncoalesced volume
   of the reference-coalesced list must simulate alike, result and
   telemetry, in both modes, healthy and under flaky links.  Lists of
   a few pairs test the order within a table of 64 buckets; lists of
   hundreds of pairs make the table resize. *)
let eventsim_order spec =
  let topo = Result.get_ok (Topology.of_string spec) in
  let arb =
    QCheck.make
      ~print:(fun msgs ->
        Printf.sprintf "%s [%s]" spec
          (String.concat "; " (List.map show_message msgs)))
      QCheck.Gen.(
        let host = int_bound (Topology.size topo - 1) in
        let many =
          list_size (int_range 150 250)
            (map2 (fun (src, dst) bytes -> Message.make ~src ~dst ~bytes) (pair host host)
               (int_bound 64))
        in
        pair (frequency [ (4, gen_messages topo); (1, many) ]) host
        >>= fun (msgs, h) ->
        (* a local pair twice, and the first two messages again *)
        let local = Message.make ~src:h ~dst:h ~bytes:16 in
        shuffle_l ((local :: local :: List.filteri (fun i _ -> i < 2) msgs) @ msgs))
  in
  let simulate faults params v =
    Obs.Telemetry.reset ();
    Obs.Telemetry.enable ();
    let r =
      Fun.protect ~finally:Obs.Telemetry.disable (fun () ->
          Eventsim.run ~faults topo params v)
    in
    let recorded = Obs.Telemetry.runs () in
    Obs.Telemetry.reset ();
    (r, recorded)
  in
  let flaky = Fault.make ~seed:42 [ Fault.Flaky { link = None; prob = 0.1 } ] in
  let wormhole = { Eventsim.default_params with Eventsim.mode = Eventsim.Wormhole } in
  prop ~count:60 spec arb (fun msgs ->
      List.for_all
        (fun (faults, params) ->
          simulate faults params (Netsim.volume ~coalesce:true topo (Message.of_list msgs))
          = simulate faults params (Reference.raw topo (Reference.coalesce msgs)))
        [
          (Fault.none, Eventsim.default_params);
          (flaky, Eventsim.default_params);
          (Fault.none, wormhole);
          (flaky, wormhole);
        ])

let eventsim_order_props =
  List.map eventsim_order [ "mesh:8x4"; "torus:4x4x2"; "fattree:3:4"; "dragonfly:4:4:2" ]

(* ------------------------------------------------------------------ *)
(* Array pricing against the list path                                 *)
(* ------------------------------------------------------------------ *)

(* Residual traffic is carried as int arrays from placement to price:
   [Patterns.fill_ranks] tables, [Patterns.successors] arrays and the Netsim
   core.  [Reference] keeps the list path it replaced — per-point
   [Layout.place], [affine_messages] and list pricing — and the two
   must agree on the stats. *)

type fold_case = {
  layout : Distrib.Layout.t;
  vgrid : int array;
  remap : int array option;
  bytes : int;
  faults : Fault.t;
}

let pp_fold_case c =
  Printf.sprintf "layout [%s] vgrid [%s] remap %s bytes %d faults %s"
    (String.concat "; "
       (Array.to_list (Array.map (Format.asprintf "%a" Distrib.Layout.pp_scheme) c.layout)))
    (String.concat "x" (Array.to_list (Array.map string_of_int c.vgrid)))
    (match c.remap with
    | None -> "-"
    | Some p -> String.concat "," (Array.to_list (Array.map string_of_int p)))
    c.bytes (Fault.label c.faults)

let gen_fold_case topo =
  let open QCheck.Gen in
  let d = Topology.ndims topo in
  let scheme =
    oneof
      [
        return Distrib.Layout.Block;
        return Distrib.Layout.Cyclic;
        map (fun b -> Distrib.Layout.Cyclic_block b) (int_range 1 3);
        map (fun k -> Distrib.Layout.Grouped k) (int_range 1 4);
      ]
  in
  let extents =
    flatten_a (Array.init d (fun i -> int_range 1 (3 * Topology.dim topo i)))
  in
  let remap =
    oneof
      [
        return None;
        map (fun l -> Some (Array.of_list l))
          (shuffle_l (List.init (Topology.size topo) Fun.id));
      ]
  in
  let faults = oneofl [ Healthy; Flaky; Severed ] >>= gen_faults topo in
  map
    (fun (((layout, vgrid), (remap, bytes)), faults) ->
      { layout; vgrid; remap; bytes; faults })
    (pair
       (pair
          (pair (array_repeat d scheme) extents)
          (pair remap (frequency [ (1, return 0); (4, int_bound 64) ])))
       faults)

(* A square flow with entries in [-bound, bound] (default 3): any
   determinant, singular included. *)
let gen_flow ?(bound = 3) d =
  QCheck.Gen.(
    map
      (fun rows -> Linalg.Mat.of_arrays (Array.of_list (List.map Array.of_list rows)))
      (list_repeat d (list_repeat d (int_range (-bound) bound))))

let pp_flat = Format.asprintf "%a" Linalg.Mat.pp_flat

let pp_flows fs = String.concat " " (List.map pp_flat fs)

(* ------------------------------------------------------------------ *)
(* Pair tally                                                          *)
(* ------------------------------------------------------------------ *)

(* An uncoalesced price routes each (pair, size) group once and adds
   its count times one message's load.  Streams here repeat a few
   pairs with sizes drawn from a short list, zero included, so a pair
   forms several groups and returns to a size it left.  Against the
   message-by-message reference: the volume itself, priced twice (the
   second price reads the count the first made); the volume relabelled
   by a random permutation against the renamed messages, replay order
   included; and two halves coalesced from their counts against the
   whole stream coalesced. *)
let gen_repeats topo =
  let open QCheck.Gen in
  let host = int_bound (Topology.size topo - 1) in
  list_size (int_range 1 4) (pair host host) >>= fun pairs ->
  let pairs = Array.of_list pairs in
  list_size (int_range 1 60)
    (map2
       (fun i bytes ->
         let src, dst = pairs.(i) in
         Message.make ~src ~dst ~bytes)
       (int_bound (Array.length pairs - 1))
       (oneofl [ 0; 8; 64; 64; 300 ]))

let pair_tally spec =
  let topo = Result.get_ok (Topology.of_string spec) in
  let hosts = Topology.size topo in
  let arb =
    QCheck.make
      ~print:(fun ((coalesce, kind, faults), (msgs, perm)) ->
        Printf.sprintf "%s coalesce=%b %s %s [%s] perm [%s]" spec coalesce
          (fault_kind_name kind) (Fault.label faults)
          (String.concat "; " (List.map show_message msgs))
          (String.concat " " (Array.to_list (Array.map string_of_int perm))))
      QCheck.Gen.(
        bool >>= fun coalesce ->
        oneofl [ Healthy; Flaky; Severed ] >>= fun kind ->
        pair
          (map (fun faults -> (coalesce, kind, faults)) (gen_faults topo kind))
          (pair (gen_repeats topo)
             (map Array.of_list (shuffle_l (List.init hosts Fun.id)))))
  in
  prop ~count:200 spec arb (fun ((coalesce, _, faults), (msgs, perm)) ->
      let volume msgs = Netsim.volume ~coalesce topo (Message.of_list msgs) in
      let price v = Netsim.price ~faults topo params v in
      let want = Reference.run ~coalesce ~faults topo params msgs in
      let v = volume msgs in
      let renamed =
        List.map
          (fun (m : Message.t) ->
            Message.make ~src:perm.(m.src) ~dst:perm.(m.dst) ~bytes:m.bytes)
          msgs
      in
      let want_renamed = Reference.run ~coalesce ~faults topo params renamed in
      let relabelled = Netsim.relabel perm v in
      let half = List.length msgs / 2 in
      let first = List.filteri (fun i _ -> i < half) msgs
      and rest = List.filteri (fun i _ -> i >= half) msgs in
      let halves =
        Netsim.coalesce topo
          [
            Netsim.volume ~coalesce:false topo (Message.of_list first);
            Netsim.volume topo (Message.of_list rest);
          ]
      in
      let whole = Netsim.volume topo (Message.of_list msgs) in
      price v = want
      && price v = want
      && price relabelled = want_renamed
      && Reference.messages (Netsim.replay relabelled)
         = Reference.messages (Netsim.replay (volume renamed))
      && price halves = price whole
      && Reference.messages (Netsim.replay halves)
         = Reference.messages (Netsim.replay whole))

let pair_tally_props =
  List.map pair_tally
    [ "mesh:8x4"; "torus:4x4x2"; "fattree:3:4"; "dragonfly:4:4:2"; "dragonfly:4:4:2:adaptive" ]

let foldsim_diff spec =
  let topo = Result.get_ok (Topology.of_string spec) in
  let model = Models.of_topo topo in
  let d = Topology.ndims topo in
  let arb =
    QCheck.make
      ~print:(fun (coalesce, c, flow) ->
        Printf.sprintf "%s coalesce=%b %s flow %s" spec coalesce (pp_fold_case c)
          (pp_flows [ flow ]))
      QCheck.Gen.(triple bool (gen_fold_case topo) (gen_flow d))
  in
  prop ~count:150 ("foldsim " ^ spec) arb (fun (coalesce, c, flow) ->
      let { layout; vgrid; remap; bytes; faults } = c in
      let stats =
        Reference.foldsim_time ~coalesce ~faults ?remap model ~layout ~vgrid ~flow ~bytes ()
      in
      (* a placement is priced by relabelling the unplaced volume *)
      let time () =
        match remap with
        | None ->
          Distrib.Foldsim.time ~coalesce ~faults model ~layout ~vgrid ~flow ~bytes ()
        | Some perm ->
          let axes = Distrib.Layout.axes layout ~vgrid ~topo in
          Netsim.price ~faults topo model.Models.net
            (Netsim.relabel perm
               (Netsim.volume ~coalesce topo
                  (Patterns.traffic ~vgrid ~axes ~bytes [ flow ])))
      in
      time () = stats)

let decomposed_diff spec =
  let topo = Result.get_ok (Topology.of_string spec) in
  let model = Models.of_topo topo in
  let d = Topology.ndims topo in
  let arb =
    QCheck.make
      ~print:(fun (c, factors) ->
        Printf.sprintf "%s %s factors %s" spec (pp_fold_case c) (pp_flows factors))
      QCheck.Gen.(pair (gen_fold_case topo) (list_size (int_range 1 4) (gen_flow d)))
  in
  prop ~count:100 ("decomposed " ^ spec) arb (fun (c, factors) ->
      let { layout; vgrid; remap; bytes; faults } = c in
      let stats =
        Reference.decomposed_time ~faults model ~layout ~vgrid ~factors ~bytes:8 ()
      in
      let phases () =
        Distrib.Foldsim.decomposed_time ~faults model ~layout ~vgrid ~factors ()
      in
      (* the placed walk, whole and resumed after each phase: the
         stats of a phase do not depend on where the walk starts *)
      let placed =
        Reference.decomposed_time ~faults ?remap model ~layout ~vgrid ~factors ~bytes ()
      in
      let walk from =
        let stats = ref [] in
        Distrib.Foldsim.walk_phases model.Models.topo ~layout ~vgrid ~factors ~bytes ~from
          (fun v ->
            let v = match remap with None -> v | Some perm -> Netsim.relabel perm v in
            stats := Netsim.price ~faults model.Models.topo model.Models.net v :: !stats;
            true);
        List.rev !stats
      in
      phases () = stats
      && List.for_all
           (fun from -> walk from = List.filteri (fun p _ -> p >= from) placed)
           (List.init (List.length factors + 1) Fun.id))

(* Residual traffic: the cyclic fold of every flow, concatenated, and
   its sorted volume graph. *)
let residual_diff =
  let topo = Topology.mesh2d ~p:4 ~q:3 in
  let arb =
    QCheck.make
      ~print:(fun (vgrid, flows) ->
        Printf.sprintf "vgrid %dx%d flows %s" vgrid.(0) vgrid.(1) (pp_flows flows))
      QCheck.Gen.(
        pair
          (array_repeat 2 (int_range 1 12))
          (list_size (int_range 0 3) (gen_flow 2)))
  in
  prop ~count:100 "residual traffic" arb (fun (vgrid, flows) ->
      let r = Resopt.Residual.make ~vgrid ~bytes:8 topo flows in
      let place = Reference.place (Distrib.Layout.all_cyclic 2) ~vgrid ~topo in
      let msgs =
        List.concat_map
          (fun flow -> Reference.affine_messages ~vgrid ~flow ~bytes:8 ~place ())
          flows
      in
      Reference.messages (Resopt.Residual.traffic r) = msgs
      && Resopt.Residual.volume_graph r = List.sort compare (Reference.volgraph msgs))

(* The cell→rank table against per-point [Layout.place]. *)
let ranks_diff spec =
  let topo = Result.get_ok (Topology.of_string spec) in
  let arb =
    QCheck.make ~print:(fun c -> spec ^ " " ^ pp_fold_case c) (gen_fold_case topo)
  in
  prop ~count:100 ("cell ranks " ^ spec) arb (fun { layout; vgrid; _ } ->
      let placed = ref [] in
      Patterns.iter_box vgrid (fun v ->
          placed := Distrib.Layout.place layout ~vgrid ~topo v :: !placed);
      let table = Array.make (Patterns.cells vgrid) 0 in
      Patterns.fill_ranks ~axes:(Distrib.Layout.axes layout ~vgrid ~topo) ~vgrid table;
      table = Array.of_list (List.rev !placed))

let pricing_diff_props =
  List.concat_map
    (fun spec -> [ foldsim_diff spec; decomposed_diff spec; ranks_diff spec ])
    [ "mesh:4x3"; "torus:4x4"; "torus:3x2x2" ]
  @ [ residual_diff ]

(* The odometer walk against the cell-by-cell reference: the same
   (v, w) sequence either way round, and the same successor array, on
   1-D to 3-D grids with any flow (singular included). *)
let walk_diff d =
  let arb =
    QCheck.make
      ~print:(fun (vgrid, flow, rev) ->
        Printf.sprintf "vgrid [%s] flow %s rev=%b"
          (String.concat "x" (Array.to_list (Array.map string_of_int vgrid)))
          (pp_flat flow) rev)
      QCheck.Gen.(
        triple
          (array_repeat d (int_range 1 (if d = 3 then 5 else 9)))
          (gen_flow ~bound:5 d) bool)
  in
  prop ~count:300 (Printf.sprintf "walk %d-D" d) arb (fun (vgrid, flow, rev) ->
      let visits walk =
        let seen = ref [] in
        walk ~rev ~vgrid flow (fun v w -> seen := (Array.copy v, Array.copy w) :: !seen);
        List.rev !seen
      in
      visits Patterns.iter_flow = visits Reference.iter_flow
      && Patterns.successors ~vgrid flow = Reference.successors ~vgrid flow)

let walk_diff_props = List.map walk_diff [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Retiming                                                            *)
(* ------------------------------------------------------------------ *)

(* A price's counts are the topology's and the traffic's: priced under
   any parameters and retimed, it is the price under the others, bit
   for bit.  So is a transfer-time bound. *)
let same_stats (a : Netsim.stats) (b : Netsim.stats) =
  bits a.Netsim.time = bits b.Netsim.time && { a with time = 0.0 } = { b with time = 0.0 }

let gen_params =
  QCheck.Gen.(
    map3
      (fun alpha beta hop -> { Netsim.alpha; beta; hop })
      (float_bound_inclusive 20.0) (float_bound_inclusive 1.0) (float_bound_inclusive 2.0))

let show_params p = Printf.sprintf "(%h, %h, %h)" p.Netsim.alpha p.Netsim.beta p.Netsim.hop

let retime_prop spec =
  let topo = Result.get_ok (Topology.of_string spec) in
  let arb =
    QCheck.make
      ~print:(fun (coalesce, faults, msgs, p, p') ->
        Printf.sprintf "%s coalesce=%b %s %s -> %s [%s]" spec coalesce (Fault.label faults)
          (show_params p') (show_params p)
          (String.concat "; " (List.map show_message msgs)))
      QCheck.Gen.(
        bool >>= fun coalesce ->
        oneofl [ Healthy; Flaky; Severed ] >>= fun kind ->
        gen_faults topo kind >>= fun faults ->
        map3
          (fun msgs p p' -> (coalesce, faults, msgs, p, p'))
          (gen_messages topo) gen_params gen_params)
  in
  prop ("netsim " ^ spec) arb (fun (coalesce, faults, msgs, p, p') ->
      let price p =
        Netsim.price ~faults topo p (Netsim.volume ~coalesce topo (Message.of_list msgs))
      in
      same_stats (Netsim.retime p (price p')) (price p))

let bounds_retime_prop spec =
  let topo = Result.get_ok (Topology.of_string spec) in
  let arb =
    QCheck.make
      ~print:(fun (msgs, p, p') ->
        Printf.sprintf "%s %s -> %s [%s]" spec (show_params p') (show_params p)
          (String.concat "; " (List.map show_message msgs)))
      QCheck.Gen.(triple (gen_messages topo) gen_params gen_params)
  in
  prop ("bounds " ^ spec) arb (fun (msgs, p, p') ->
      let bound p = Bounds.transfer_time topo p (Netsim.volume topo (Message.of_list msgs)) in
      let a = Bounds.retime p (bound p') and b = bound p in
      same_stats a.Bounds.achieved b.Bounds.achieved
      && bits a.Bounds.bound_time = bits b.Bounds.bound_time
      && bits a.Bounds.efficiency = bits b.Bounds.efficiency
      && (a.Bounds.serial_lb, a.Bounds.link_lb, a.Bounds.hops_lb)
         = (b.Bounds.serial_lb, b.Bounds.link_lb, b.Bounds.hops_lb))

let retime_specs = [ "mesh:8x4"; "torus:4x4x2"; "fattree:3:4"; "dragonfly:4:4:2" ]

let retime_props =
  List.map retime_prop retime_specs @ List.map bounds_retime_prop retime_specs

(* ------------------------------------------------------------------ *)
(* One fold per topology                                               *)
(* ------------------------------------------------------------------ *)

let share_sweep ~models workloads =
  Resopt.Sweep.run ~ms:[ 2 ] ~models ~workloads
    ~mapping:(Mapping.spec Mapping.Greedy) ~bounds:true
    ~faults:(Fault.make [ Fault.Flaky { link = None; prob = 0.02 } ]) ()

let netsim_runs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      ignore (f () : Resopt.Sweep.row list);
      Obs.counter "netsim.runs")

(* CM-5 and Paragon share mesh:8x4: a cell prices its traffic on it
   once, so adding CM-5's row to Paragon's prices nothing more. *)
let test_share_runs () =
  let decomposed (w : Resopt.Workloads.t) =
    match Resopt.Pipeline.run ~m:2 ~schedule:w.Resopt.Workloads.schedule w.Resopt.Workloads.nest with
    | exception _ -> false
    | r ->
      List.exists
        (fun (e : Resopt.Commplan.entry) ->
          match e.Resopt.Commplan.classification with
          | Resopt.Commplan.Decomposed _ -> true
          | _ -> false)
        r.Resopt.Pipeline.plan
  in
  let w = List.find decomposed (Resopt.Workloads.generated ~seed:100003 ~count:200) in
  let both = [ Models.cm5 (); Models.paragon () ] in
  (* the translation shift is priced once per process: pay it first *)
  ignore (share_sweep ~models:both [ w ] : Resopt.Sweep.row list);
  let runs_both = netsim_runs (fun () -> share_sweep ~models:both [ w ]) in
  let runs_paragon = netsim_runs (fun () -> share_sweep ~models:[ Models.paragon () ] [ w ]) in
  Alcotest.(check bool) (w.Resopt.Workloads.name ^ " prices something") true (runs_paragon > 0);
  Alcotest.(check int) (w.Resopt.Workloads.name ^ ": netsim.runs") runs_paragon runs_both

(* A model list that names one topology several times, under other
   wire parameters too, gives each model the rows a sweep of that
   model alone gives. *)
let test_share_rows () =
  let mesh = Models.of_topo (Result.get_ok (Topology.of_string "mesh:8x4")) in
  let models =
    [ Models.cm5 (); Models.paragon (); Models.t3d (); mesh; Models.paragon ~p:4 ~q:4 (); Models.cm5 () ]
  in
  let workloads = Resopt.Workloads.generated ~seed:100003 ~count:60 in
  let alone = List.map (fun m -> share_sweep ~models:[ m ] workloads) models in
  let per_cell = List.length (List.hd alone) in
  let interleaved =
    List.concat
      (List.init per_cell (fun i -> List.map (fun rows -> List.nth rows i) alone))
  in
  Alcotest.(check string) "rows" (Resopt.Sweep.to_csv interleaved)
    (Resopt.Sweep.to_csv (share_sweep ~models workloads))

(* ------------------------------------------------------------------ *)
(* Generated-corpus golden                                             *)
(* ------------------------------------------------------------------ *)

(* The curated workloads leave residual flows in two cells only; the
   first 200 nests of this seeded Gennest corpus leave them in about
   one in seven.  The digest pins the whole sweep CSV — Netsim
   pricing, greedy placement, bounds and the 0/1/5% resilience
   columns — and a 4-job sweep, whose workers share each topology's
   compiled tables, must reproduce it. *)
let corpus_csv ?jobs workloads =
  Resopt.Sweep.to_csv
    (Resopt.Sweep.run ?jobs ~ms:[ 2 ] ~workloads
       ~mapping:(Mapping.spec Mapping.Greedy) ~bounds:true ~faults:Fault.none ())

let test_corpus_golden () =
  let workloads = Resopt.Workloads.generated ~seed:100003 ~count:200 in
  (* the 4-job sweep runs first, so its workers race to fill the
     compiled route memos *)
  let parallel = corpus_csv ~jobs:4 workloads in
  let csv = corpus_csv workloads in
  Alcotest.(check string) "sweep CSV digest" "12b08754f8d35124c16e330b5a1b0267"
    (Digest.to_hex (Digest.string csv));
  Alcotest.(check string) "jobs 4 = sequential" csv parallel

(* ------------------------------------------------------------------ *)
(* Calibration                                                         *)
(* ------------------------------------------------------------------ *)

let test_linear_fit_exact () =
  (* perfectly linear data: recovered exactly *)
  let samples = List.map (fun b -> (b, 10.0 +. (0.5 *. float_of_int b))) [ 1; 2; 4; 8 ] in
  let fit = Machine.Calibrate.linear_fit samples in
  Alcotest.(check (float 1e-6)) "alpha" 10.0 fit.Machine.Calibrate.alpha;
  Alcotest.(check (float 1e-6)) "beta" 0.5 fit.Machine.Calibrate.beta;
  Alcotest.(check (float 1e-6)) "residual" 0.0 fit.Machine.Calibrate.residual

let test_linear_fit_rejects () =
  Alcotest.check_raises "one sample"
    (Invalid_argument "Calibrate.linear_fit: need at least two samples") (fun () ->
      ignore (Machine.Calibrate.linear_fit [ (1, 1.0) ]));
  Alcotest.check_raises "same sizes"
    (Invalid_argument "Calibrate.linear_fit: need two distinct sizes") (fun () ->
      ignore (Machine.Calibrate.linear_fit [ (4, 1.0); (4, 2.0) ]))

let test_fit_recovers_eventsim () =
  (* the event simulator's neighbour message costs
     startup + ceil(bytes / bw) cycles; the fit must find a slope near
     1/bw and an intercept near the startup *)
  let params = { Machine.Eventsim.bytes_per_cycle = 16; startup_cycles = 50; mode = Machine.Eventsim.Store_forward } in
  let topo = Machine.Topology.make [| 2 |] in
  let fit = Machine.Calibrate.fit_model topo params in
  Alcotest.(check bool) "slope ~ 1/16" true
    (abs_float (fit.Machine.Calibrate.beta -. (1.0 /. 16.0)) < 0.02);
  Alcotest.(check bool) "intercept ~ startup" true
    (abs_float (fit.Machine.Calibrate.alpha -. 50.0) < 10.0)

let calibrate_props =
  let arb =
    QCheck.make
      ~print:(fun (a, b) -> Printf.sprintf "a=%d b=%d" a b)
      QCheck.Gen.(pair (int_range 0 100) (int_range 1 50))
  in
  [
    prop "fit recovers synthetic linear data" arb (fun (a, b) ->
        let alpha = float_of_int a and beta = float_of_int b /. 10.0 in
        let samples =
          List.map (fun x -> (x, alpha +. (beta *. float_of_int x))) [ 3; 7; 20; 41 ]
        in
        let fit = Machine.Calibrate.linear_fit samples in
        abs_float (fit.Machine.Calibrate.alpha -. alpha) < 1e-6
        && abs_float (fit.Machine.Calibrate.beta -. beta) < 1e-6);
  ]

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
      ( "compiled",
        [ Alcotest.test_case "shared across domains" `Quick test_compiled_shared ] );
      ( "translation",
        [
          Alcotest.test_case "priced once = priced afresh" `Quick test_translation_shift;
          Alcotest.test_case "four domains, one pricing" `Quick test_translation_race;
        ] );
      ("netsim-diff", netsim_diff_props);
      ("pair-tally", pair_tally_props);
      ("eventsim-order", eventsim_order_props);
      ("pricing-diff", pricing_diff_props);
      ("walk-diff", walk_diff_props);
      ( "corpus-golden",
        [ Alcotest.test_case "gennest sweep CSV" `Quick test_corpus_golden ] );
      ("retime", retime_props);
      ( "fold-share",
        [
          Alcotest.test_case "cm5 adds no netsim run" `Quick test_share_runs;
          Alcotest.test_case "repeated topology rows" `Quick test_share_rows;
        ] );
      ( "calibrate",
        [
          Alcotest.test_case "exact fit" `Quick test_linear_fit_exact;
          Alcotest.test_case "input validation" `Quick test_linear_fit_rejects;
          Alcotest.test_case "recovers eventsim parameters" `Quick
            test_fit_recovers_eventsim;
        ]
        @ calibrate_props );
    ]
