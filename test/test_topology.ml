(* The cross-topology invariant matrix.

   One shared suite of invariants — route validity, distance bounds,
   detour-or-None correctness, delivery conservation under faults,
   telemetry no-observer-effect, mapping search <= greedy <= identity,
   same-seed and jobs-1-vs-4 determinism — instantiated against every
   topology family.  Adding a topology means adding ONE line to
   [matrix] below; no new test logic.  (Optionally also pin its
   event-simulated cycle count in [cycle_goldens] — instances without
   a pin skip that check.)

   Per-topology goldens (hand-computed fat-tree and dragonfly hop
   counts, capacities, distance tables) and the [--topo] spec-grammar
   tests follow the matrix. *)

open Machine

let prop ?(count = 200) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* The matrix                                                          *)
(* ------------------------------------------------------------------ *)

let matrix =
  [
    ("mesh4x8", Topology.mesh2d ~p:4 ~q:8);
    ("torus8x8", Topology.make ~torus:true [| 8; 8 |]);
    ("torus4x4x2", Topology.torus3d ~p:4 ~q:4 ~r:2);
    ("fattree2x4", Topology.fat_tree ~levels:2 ~arity:4);
    ("fattree3x2", Topology.fat_tree ~levels:3 ~arity:2);
    ("dragonfly-minimal", Topology.dragonfly ~groups:4 ~routers:4 ~hosts:2 ());
    ( "dragonfly-adaptive",
      Topology.dragonfly ~routing:(Topology.Valiant 7) ~groups:4 ~routers:4
        ~hosts:2 () );
  ]

(* Event-simulated cycle counts for the fixed [msgs_for] traffic below,
   fault-free, default parameters.  A new matrix instance without a pin
   here simply skips the golden. *)
let cycle_goldens =
  [
    ("mesh4x8", 78);
    ("torus8x8", 85);
    ("torus4x4x2", 76);
    ("fattree2x4", 136);
    ("fattree3x2", 138);
    ("dragonfly-minimal", 79);
    ("dragonfly-adaptive", 84);
  ]

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let norm (a, b) = (min a b, max a b)

let link_table topo =
  let tbl = Hashtbl.create 256 in
  List.iter (fun (l, cap) -> Hashtbl.replace tbl l cap) (Topology.links topo);
  tbl

let is_link tbl l = Hashtbl.mem tbl (norm l)

(* An independent reachability oracle over the surviving links — NOT
   the BFS under test. *)
let reachable ~down topo src dst =
  let n = Topology.nodes topo in
  let adj = Array.make n [] in
  List.iter
    (fun ((a, b), _) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    (Topology.links topo);
  let seen = Array.make n false in
  let rec dfs v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter (fun w -> if not (down (v, w)) then dfs w) adj.(v)
    end
  in
  dfs src;
  seen.(dst)

(* Fixed deterministic traffic: up to 24 remote messages. *)
let msgs_for topo =
  let n = Topology.size topo in
  List.filter_map
    (fun i ->
      let src = i mod n and dst = ((i * 5) + 3) mod n in
      if src = dst then None else Some (Message.make ~src ~dst ~bytes:48))
    (List.init (min (2 * n) 24) Fun.id)

let arb_pair name topo =
  let n = Topology.size topo in
  QCheck.make
    ~print:(fun (s, d) -> Printf.sprintf "%s %d->%d" name s d)
    QCheck.Gen.(pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))

(* ------------------------------------------------------------------ *)
(* The shared invariants                                               *)
(* ------------------------------------------------------------------ *)

let test_graph_well_formed topo () =
  let links = Topology.links topo in
  Alcotest.(check bool) "links sorted, u < v, cap >= 1" true
    (List.for_all (fun ((u, v), cap) -> u < v && cap >= 1) links
    && List.sort compare links = links);
  Alcotest.(check bool) "hosts <= nodes" true
    (Topology.size topo <= Topology.nodes topo);
  Alcotest.(check bool) "endpoints within nodes" true
    (List.for_all
       (fun ((u, v), _) -> u >= 0 && v < Topology.nodes topo)
       links);
  (* every vertex is reachable from host 0 *)
  let ok = ref true in
  for v = 0 to Topology.nodes topo - 1 do
    if not (reachable ~down:(fun _ -> false) topo 0 v) then ok := false
  done;
  Alcotest.(check bool) "connected" true !ok;
  Alcotest.(check int) "host-grid view is the host count"
    (Topology.size topo)
    (Array.fold_left ( * ) 1 (Topology.dims topo))

let prop_route_valid (name, topo) =
  let tbl = link_table topo in
  prop (name ^ ": route is a real path ending at dst") (arb_pair name topo)
    (fun (src, dst) ->
      let r = Topology.route topo ~src ~dst in
      if src = dst then r = []
      else
        List.length r <= Reference.route_bound topo
        && (match r with (a, _) :: _ -> a = src | [] -> false)
        && (match List.rev r with (_, b) :: _ -> b = dst | [] -> false)
        && List.for_all (fun l -> is_link tbl l) r
        && fst (List.fold_left
                  (fun (ok, prev) (a, b) -> (ok && a = prev, b))
                  (true, src) r))

let prop_distance (name, topo) =
  prop (name ^ ": distance symmetric, within bounds, <= route length")
    (arb_pair name topo) (fun (src, dst) ->
      let d = Topology.distance topo ~src ~dst in
      d = Topology.distance topo ~src:dst ~dst:src
      && d <= Topology.diameter topo
      && (if src = dst then d = 0 else d > 0)
      && d <= List.length (Topology.route topo ~src ~dst))

let prop_detour (name, topo) =
  (* sever the k-th link of the minimal route (both directions) plus a
     pseudo-random extra link, then demand: detour avoiding them and
     reaching dst, or None exactly when the oracle agrees dst is cut
     off *)
  let links = Array.of_list (List.map fst (Topology.links topo)) in
  prop (name ^ ": detour avoids severed links or None iff unreachable")
    (arb_pair name topo) (fun (src, dst) ->
      let base = Topology.route topo ~src ~dst in
      let severed =
        match base with
        | [] -> []
        | _ ->
          let k = (src + dst) mod List.length base in
          [ norm (List.nth base k);
            norm links.((src * 31 + dst * 7) mod Array.length links) ]
      in
      let down l = List.mem (norm l) severed in
      match Topology.route_avoiding ~down topo ~src ~dst with
      | None -> not (reachable ~down topo src dst)
      | Some r ->
        reachable ~down topo src dst
        && (if src = dst then r = []
            else
              (match List.rev r with (_, b) :: _ -> b = dst | [] -> false)
              && List.for_all (fun l -> not (down l)) r
              && fst (List.fold_left
                        (fun (ok, prev) (a, b) -> (ok && a = prev, b))
                        (true, src) r)))

let fault_variants topo =
  let n = Topology.size topo in
  let first_link =
    match Topology.route topo ~src:0 ~dst:(n - 1) with
    | (a, b) :: _ -> (a, b)
    | [] -> (0, 0)
  in
  [
    Fault.none;
    Fault.make ~seed:3 [ Fault.Flaky { link = None; prob = 0.3 } ];
    Fault.make ~seed:4
      [
        Fault.Link_down
          { a = fst first_link; b = snd first_link; from_cycle = 0;
            until_cycle = max_int };
        Fault.Dead_node (n - 1);
        Fault.Flaky { link = None; prob = 0.05 };
      ];
  ]

let test_conservation topo () =
  let msgs = msgs_for topo in
  let total = List.length msgs in
  List.iter
    (fun faults ->
      let r = Eventsim.run ~faults topo Eventsim.default_params (Reference.raw topo msgs) in
      Alcotest.(check int)
        ("delivered + dropped + unreachable = total under "
        ^ Fault.label faults)
        total
        (r.Eventsim.delivered + r.Eventsim.dropped + r.Eventsim.unreachable);
      if Fault.is_none faults then
        Alcotest.(check int) "fault-free delivers everything" total
          r.Eventsim.delivered)
    (fault_variants topo)

let test_no_observer topo () =
  let msgs = msgs_for topo in
  let faults = Fault.make ~seed:5 [ Fault.Flaky { link = None; prob = 0.1 } ] in
  let quiet = Eventsim.run ~faults topo Eventsim.default_params (Reference.raw topo msgs) in
  let watched =
    Obs.Telemetry.enable ();
    Fun.protect
      ~finally:(fun () ->
        Obs.Telemetry.disable ();
        Obs.Telemetry.reset ())
      (fun () ->
        Eventsim.run ~faults topo Eventsim.default_params (Reference.raw topo msgs))
  in
  Alcotest.(check bool) "telemetry does not change the simulation" true
    (quiet = watched)

let test_mapping_order topo () =
  let n = Topology.size topo in
  let vol =
    List.filter
      (fun ((a, b), _) -> a <> b)
      (List.init (min n 16) (fun i -> ((i, ((i * 3) + 1) mod n), 64 * (i + 1))))
  in
  let hb = Mapping.hop_bytes topo vol in
  let id = Mapping.identity n in
  let g = Mapping.(compute (spec Greedy)) topo vol in
  let s = Mapping.compute (Mapping.spec ~seed:1 Mapping.Search) topo vol in
  Alcotest.(check bool) "permutations valid" true
    (Reference.is_permutation g && Reference.is_permutation s);
  Alcotest.(check bool)
    (Printf.sprintf "search (%d) <= greedy (%d) <= identity (%d)" (hb s) (hb g)
       (hb id))
    true
    (hb s <= hb g && hb g <= hb id)

let test_determinism name topo () =
  let msgs = msgs_for topo in
  let faults =
    Fault.make ~seed:11 [ Fault.Flaky { link = None; prob = 0.15 } ]
  in
  let r1 = Eventsim.run ~faults topo Eventsim.default_params (Reference.raw topo msgs) in
  let r2 = Eventsim.run ~faults topo Eventsim.default_params (Reference.raw topo msgs) in
  Alcotest.(check bool) "same seed, same result" true (r1 = r2);
  match List.assoc_opt name cycle_goldens with
  | None -> ()
  | Some golden ->
    let r = Eventsim.run topo Eventsim.default_params (Reference.raw topo msgs) in
    Alcotest.(check int) "pinned cycle count" golden r.Eventsim.cycles

let test_sweep_jobs topo () =
  let models = [ Models.of_topo topo ] in
  let workloads =
    [ Resopt.Workloads.find "example1"; Resopt.Workloads.find "example4" ]
  in
  let csv jobs = Resopt.Sweep.to_csv (Resopt.Sweep.run ~jobs ~models ~workloads ()) in
  Alcotest.(check string) "jobs 1 and jobs 4 byte-identical" (csv 1) (csv 4)

let shared_suite (name, topo) =
  ( "matrix:" ^ name,
    [
      Alcotest.test_case "graph well-formed" `Quick (test_graph_well_formed topo);
      prop_route_valid (name, topo);
      prop_distance (name, topo);
      prop_detour (name, topo);
      Alcotest.test_case "delivery conservation" `Quick (test_conservation topo);
      Alcotest.test_case "no observer effect" `Quick (test_no_observer topo);
      Alcotest.test_case "mapping order" `Quick (test_mapping_order topo);
      Alcotest.test_case "determinism + cycle golden" `Quick
        (test_determinism name topo);
      Alcotest.test_case "sweep jobs determinism" `Quick (test_sweep_jobs topo);
    ] )

(* ------------------------------------------------------------------ *)
(* Per-topology goldens: hand-computed routes and capacities           *)
(* ------------------------------------------------------------------ *)

let hops = Alcotest.(list (pair int int))

(* fattree:2:2 — 4 hosts (0-3), leaf switches 4 (hosts 0,1) and 5
   (hosts 2,3), root 6. *)
let test_fattree_routes () =
  let t = Topology.fat_tree ~levels:2 ~arity:2 in
  Alcotest.(check int) "hosts" 4 (Topology.size t);
  Alcotest.(check int) "nodes" 7 (Topology.nodes t);
  Alcotest.(check int) "diameter" 4 (Topology.diameter t);
  Alcotest.check hops "siblings meet at the leaf" [ (0, 4); (4, 1) ]
    (Topology.route t ~src:0 ~dst:1);
  Alcotest.check hops "far pair climbs to the root"
    [ (0, 4); (4, 6); (6, 5); (5, 3) ]
    (Topology.route t ~src:0 ~dst:3);
  Alcotest.check hops "and back down the other side"
    [ (3, 5); (5, 6); (6, 4); (4, 0) ]
    (Topology.route t ~src:3 ~dst:0);
  (* capacity doubles per level: host links 1, leaf->root 2 *)
  Alcotest.(check int) "host link capacity" 1 (Topology.link_capacity t (0, 4));
  Alcotest.(check int) "uplink capacity" 2 (Topology.link_capacity t (4, 6));
  (* the satellite regression: the fat-tree distance table the mapping
     search now consumes (2 inside a leaf, 4 across the root) *)
  let expect =
    [|
      [| 0; 2; 4; 4 |]; [| 2; 0; 4; 4 |]; [| 4; 4; 0; 2 |]; [| 4; 4; 2; 0 |];
    |]
  in
  let n = Topology.size t in
  Alcotest.(check bool) "distance table" true
    (Array.init n (fun s ->
         Array.init n (fun d -> Topology.distance t ~src:s ~dst:d))
    = expect)

(* fattree:3:4 — 64 hosts, 16 + 4 + 1 switches. *)
let test_fattree_large () =
  let t = Topology.fat_tree ~levels:3 ~arity:4 in
  Alcotest.(check int) "hosts" 64 (Topology.size t);
  Alcotest.(check int) "nodes" 85 (Topology.nodes t);
  Alcotest.(check (array int)) "near-square host view" [| 8; 8 |]
    (Topology.dims t);
  Alcotest.(check int) "distance within a leaf" 2 (Topology.distance t ~src:0 ~dst:3);
  Alcotest.(check int) "distance across one level" 4
    (Topology.distance t ~src:0 ~dst:15);
  Alcotest.(check int) "distance across the root" 6
    (Topology.distance t ~src:0 ~dst:63);
  Alcotest.(check int) "top uplink capacity" 16
    (Topology.link_capacity t (64 + 16, 64 + 16 + 4));
  Alcotest.(check bool) "hw collectives hinted" true
    (Topology.capability t).Topology.hw_collectives

(* dragonfly:3:2:1 — 6 hosts, routers 6..11 (group g owns 6+2g and
   7+2g); gateway of group p toward q sits on router (q-1 mod 2 | q mod
   2). *)
let test_dragonfly_routes () =
  let t = Topology.dragonfly ~groups:3 ~routers:2 ~hosts:1 () in
  Alcotest.(check int) "hosts" 6 (Topology.size t);
  Alcotest.(check int) "nodes" 12 (Topology.nodes t);
  Alcotest.(check int) "diameter" 5 (Topology.diameter t);
  Alcotest.check hops "same group: host, local link, host"
    [ (0, 6); (6, 7); (7, 1) ]
    (Topology.route t ~src:0 ~dst:1);
  Alcotest.check hops "cross group, both gateways remote"
    [ (0, 6); (6, 7); (7, 10); (10, 11); (11, 5) ]
    (Topology.route t ~src:0 ~dst:5);
  Alcotest.(check int) "minimal distance" 5 (Topology.distance t ~src:0 ~dst:5);
  Alcotest.(check int) "global link capacity = hosts per router" 1
    (Topology.link_capacity t (7, 10));
  let t2 = Topology.dragonfly ~groups:4 ~routers:4 ~hosts:2 () in
  Alcotest.(check int) "fat global links" 2
    (Topology.link_capacity t2
       (List.hd
          (List.filter_map
             (fun ((a, b), cap) ->
               if cap > 1 then Some (a, b) else None)
             (Topology.links t2))))

let test_dragonfly_adaptive () =
  let minimal = Topology.dragonfly ~groups:4 ~routers:4 ~hosts:2 () in
  let adaptive =
    Topology.dragonfly ~routing:(Topology.Valiant 7) ~groups:4 ~routers:4
      ~hosts:2 ()
  in
  let n = Topology.size adaptive in
  Alcotest.(check bool) "adaptive routing hinted" true
    (Topology.capability adaptive).Topology.adaptive_routing;
  (* Valiant detours are real (some route exceeds the minimal length)
     yet pure: the same (seed, src, dst) always takes the same path,
     and distances stay the minimal metric. *)
  let detoured = ref false in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let r = Topology.route adaptive ~src ~dst in
      let d = Topology.distance adaptive ~src ~dst in
      if List.length r > d then detoured := true;
      Alcotest.(check int) "minimal metric unchanged" d
        (Topology.distance minimal ~src ~dst);
      Alcotest.(check bool) "replay identical" true
        (r = Topology.route adaptive ~src ~dst)
    done
  done;
  Alcotest.(check bool) "some pair detours" true !detoured

let golden_suite =
  ( "golden",
    [
      Alcotest.test_case "fattree 2:2 routes + distance table" `Quick
        test_fattree_routes;
      Alcotest.test_case "fattree 3:4 shape" `Quick test_fattree_large;
      Alcotest.test_case "dragonfly 3:2:1 routes" `Quick test_dragonfly_routes;
      Alcotest.test_case "dragonfly adaptive" `Quick test_dragonfly_adaptive;
    ] )

(* ------------------------------------------------------------------ *)
(* Spec grammar                                                        *)
(* ------------------------------------------------------------------ *)

let arb_topo =
  let open QCheck.Gen in
  let grid =
    int_range 1 3 >>= fun nd ->
    list_repeat nd (int_range 1 9) >>= fun dims ->
    map
      (fun torus -> Topology.make ~torus (Array.of_list dims))
      (oneofl [ true; false ])
  in
  let fattree =
    int_range 1 3 >>= fun levels ->
    map (fun arity -> Topology.fat_tree ~levels ~arity) (int_range 2 4)
  in
  let dragonfly =
    int_range 1 4 >>= fun groups ->
    int_range 1 4 >>= fun routers ->
    int_range 1 3 >>= fun hosts ->
    map
      (fun routing -> Topology.dragonfly ~routing ~groups ~routers ~hosts ())
      (oneofl [ Topology.Minimal; Topology.Valiant 0; Topology.Valiant 42 ])
  in
  QCheck.make ~print:Topology.to_string (oneof [ grid; fattree; dragonfly ])

let test_parse_pins () =
  let ok spec f =
    match Topology.of_string spec with
    | Ok t -> f t
    | Error e -> Alcotest.failf "%S should parse: %s" spec e
  in
  ok "mesh:4x8" (fun t ->
      Alcotest.(check bool) "grid" true (Topology.is_grid t);
      Alcotest.(check bool) "mesh" false (Topology.is_torus t);
      Alcotest.(check (array int)) "dims" [| 4; 8 |] (Topology.dims t));
  ok "torus:8x8" (fun t ->
      Alcotest.(check bool) "torus" true (Topology.is_torus t);
      Alcotest.(check string) "print" "torus:8x8" (Topology.to_string t));
  ok "Torus:8X8" (fun t ->
      Alcotest.(check string) "case-insensitive" "torus:8x8"
        (Topology.to_string t));
  ok "fattree:3:4" (fun t ->
      Alcotest.(check int) "64 hosts" 64 (Topology.size t));
  ok "dragonfly:4:4:2" (fun t ->
      Alcotest.(check int) "32 hosts" 32 (Topology.size t);
      Alcotest.(check bool) "minimal" false
        (Topology.capability t).Topology.adaptive_routing);
  ok "dragonfly:4:4:2:adaptive:9" (fun t ->
      Alcotest.(check string) "seed survives" "dragonfly:4:4:2:adaptive:9"
        (Topology.to_string t))

let test_parse_errors () =
  List.iter
    (fun bad ->
      match Topology.of_string bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error e ->
        let quoted = Printf.sprintf "%S" bad in
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "error for %S names the spec" bad)
          true (contains e quoted))
    [
      "";
      "mesh";
      "mesh:";
      "mesh:0x4";
      "mesh:4x-2";
      "torus:axb";
      "fattree:3";
      "fattree:0:4";
      "fattree:2:1";
      "fattree:2:4:9";
      "dragonfly:4:4";
      "dragonfly:4:0:2";
      "dragonfly:2:2:2:bogus";
      "dragonfly:2:2:2:adaptive:-1";
      "ring:8";
      "hypercube:4";
    ]

let grammar_suite =
  ( "grammar",
    [
      prop ~count:300 "to_string/of_string round-trip" arb_topo (fun t ->
          match Topology.of_string (Topology.to_string t) with
          | Ok t' -> Topology.to_string t' = Topology.to_string t && t' = t
          | Error _ -> false);
      Alcotest.test_case "parse pins" `Quick test_parse_pins;
      Alcotest.test_case "rejects garbage, naming the spec" `Quick
        test_parse_errors;
    ] )

let () =
  Alcotest.run "topology"
    (List.map shared_suite matrix @ [ golden_suite; grammar_suite ])
