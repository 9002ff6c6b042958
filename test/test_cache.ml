(* The memo-cache layer: LRU mechanics, persistence hygiene, worker
   merging, which paths memoize, and — the property the whole
   subsystem rests on — that caching never changes a result: a
   memoized path produces byte-identical output with the cache off,
   on and warm. *)

open Linalg

let prop ?(count = 100) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* run [f] with the cache on and empty, leaving it off and empty *)
let fresh f =
  Cache.clear ();
  Fun.protect
    ~finally:(fun () -> Cache.clear ())
    (fun () -> Cache.scoped ~enable:true f)

let temp_file () = Filename.temp_file "resopt_cache" ".bin"

(* ------------------------------------------------------------------ *)
(* LRU mechanics                                                       *)
(* ------------------------------------------------------------------ *)

let lru = Cache.Memo.create ~capacity:3 ~name:"test.lru" ~schema:"v1" ()

let get t key = Cache.Memo.find_or_compute t ~key (fun () -> "v:" ^ key)

let test_lru_eviction_order () =
  fresh @@ fun () ->
  List.iter (fun k -> ignore (get lru k)) [ "a"; "b"; "c" ];
  Alcotest.(check (list string)) "MRU first" [ "c"; "b"; "a" ] (Cache.Memo.keys lru);
  ignore (get lru "a");
  Alcotest.(check (list string)) "touch refreshes" [ "a"; "c"; "b" ]
    (Cache.Memo.keys lru);
  ignore (get lru "d");
  Alcotest.(check (list string)) "LRU (b) evicted" [ "d"; "a"; "c" ]
    (Cache.Memo.keys lru);
  Alcotest.(check bool) "b gone" false (Cache.Memo.mem lru "b");
  Alcotest.(check bool) "a kept" true (Cache.Memo.mem lru "a");
  let s = Cache.Memo.stats lru in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions

let test_capacity_bound () =
  fresh @@ fun () ->
  let t = Cache.Memo.create ~capacity:8 ~name:"test.bound" ~schema:"v1" () in
  for i = 0 to 99 do
    ignore (Cache.Memo.find_or_compute t ~key:(string_of_int i) (fun () -> i))
  done;
  Alcotest.(check int) "never exceeds capacity" 8 (Cache.Memo.length t);
  Alcotest.(check int) "evicted the rest" 92 (Cache.Memo.stats t).Cache.evictions;
  Alcotest.(check (list string)) "the 8 most recent survive"
    (List.init 8 (fun i -> string_of_int (99 - i)))
    (Cache.Memo.keys t)

let test_hit_miss_tallies () =
  fresh @@ fun () ->
  let t = Cache.Memo.create ~name:"test.tallies" ~schema:"v1" () in
  let runs = ref 0 in
  let look key =
    Cache.Memo.find_or_compute t ~key (fun () -> incr runs; !runs)
  in
  let first = look "k" in
  let second = look "k" in
  Alcotest.(check int) "thunk ran once" 1 !runs;
  Alcotest.(check int) "hit returns the stored value" first second;
  let s = Cache.Memo.stats t in
  Alcotest.(check (pair int int)) "1 hit, 1 miss" (1, 1) (s.Cache.hits, s.Cache.misses)

let test_disabled_is_passthrough () =
  Cache.clear ();
  Alcotest.(check bool) "cache off" false (Cache.enabled ());
  let t = Cache.Memo.create ~name:"test.disabled" ~schema:"v1" () in
  let runs = ref 0 in
  let look () = Cache.Memo.find_or_compute t ~key:"k" (fun () -> incr runs) in
  look ();
  look ();
  Alcotest.(check int) "thunk runs every time" 2 !runs;
  Alcotest.(check int) "nothing stored" 0 (Cache.Memo.length t)

let test_scoped_restores () =
  Cache.disable ();
  Cache.scoped ~enable:true (fun () ->
      Alcotest.(check bool) "on inside" true (Cache.enabled ()));
  Alcotest.(check bool) "off after" false (Cache.enabled ());
  (try
     Cache.scoped ~enable:true (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "off after exception" false (Cache.enabled ())

let test_raising_thunk_not_cached () =
  fresh @@ fun () ->
  let t = Cache.Memo.create ~name:"test.raise" ~schema:"v1" () in
  (try
     ignore (Cache.Memo.find_or_compute t ~key:"k" (fun () -> failwith "no"))
   with Failure _ -> ());
  Alcotest.(check bool) "failure not stored" false (Cache.Memo.mem t "k");
  let v = Cache.Memo.find_or_compute t ~key:"k" (fun () -> 41) in
  Alcotest.(check int) "later success stored" 41 v;
  Alcotest.(check bool) "stored now" true (Cache.Memo.mem t "k")

(* The split lookup: [find_opt], then [add] on a miss, must leave the
   table and every tally where [find_or_compute] leaves them, and never
   invent a value — [None] after eviction and while disabled. *)
let test_find_opt_matches_find_or_compute () =
  let a = Cache.Memo.create ~capacity:2 ~name:"test.split.whole" ~schema:"v1" () in
  let b = Cache.Memo.create ~capacity:2 ~name:"test.split.halves" ~schema:"v1" () in
  let obs () =
    List.map Obs.counter [ "cache.lookups"; "cache.hits"; "cache.misses"; "cache.evictions" ]
  in
  let tallies t =
    let s = Cache.Memo.stats t in
    (s.Cache.hits, s.Cache.misses, s.Cache.evictions, s.Cache.entries)
  in
  let whole key = ignore (get a key) in
  let halves key =
    match Cache.Memo.find_opt b key with
    | Some v -> Alcotest.(check string) ("stored value of " ^ key) ("v:" ^ key) v
    | None -> Cache.Memo.add b ~key ("v:" ^ key)
  in
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.reset (); Obs.disable ()) @@ fun () ->
  fresh @@ fun () ->
  let trace = [ "x"; "x"; "y"; "x"; "z"; "y"; "x"; "z"; "z" ] in
  let moved run =
    Obs.reset ();
    List.iter run trace;
    obs ()
  in
  let by_whole = moved whole in
  let by_halves = moved halves in
  Alcotest.(check (list int)) "same Obs counter moves" by_whole by_halves;
  Alcotest.(check bool) "the trace hit, missed and evicted" true
    (List.for_all (fun n -> n > 0) by_whole);
  Alcotest.(check (pair (pair int int) (pair int int))) "same table tallies"
    (let h, m, e, n = tallies a in ((h, m), (e, n)))
    (let h, m, e, n = tallies b in ((h, m), (e, n)));
  Alcotest.(check (list string)) "same recency order" (Cache.Memo.keys a)
    (Cache.Memo.keys b);
  Alcotest.(check (option string)) "evicted key" None (Cache.Memo.find_opt b "y");
  Alcotest.(check (option string)) "kept key" (Some "v:z") (Cache.Memo.find_opt b "z");
  Cache.scoped ~enable:false (fun () ->
      let before = (tallies b, obs ()) in
      Alcotest.(check (option string)) "disabled finds nothing" None
        (Cache.Memo.find_opt b "z");
      Cache.Memo.add b ~key:"w" "v:w";
      Alcotest.(check bool) "disabled counts and stores nothing" true
        (before = (tallies b, obs ())))

(* ------------------------------------------------------------------ *)
(* Worker capture / merge                                              *)
(* ------------------------------------------------------------------ *)

let test_worker_merge () =
  fresh @@ fun () ->
  let t = Cache.Memo.create ~name:"test.worker" ~schema:"v1" () in
  ignore (Cache.Memo.find_or_compute t ~key:"parent" (fun () -> 0));
  let (), merge =
    Cache.capture (fun () ->
        Alcotest.(check bool) "fresh shard inside" false
          (Cache.Memo.mem t "parent");
        ignore (Cache.Memo.find_or_compute t ~key:"w1" (fun () -> 1));
        ignore (Cache.Memo.find_or_compute t ~key:"w2" (fun () -> 2)))
  in
  Alcotest.(check bool) "parent restored" true (Cache.Memo.mem t "parent");
  Alcotest.(check bool) "not merged yet" false (Cache.Memo.mem t "w1");
  merge ();
  Alcotest.(check bool) "w1 merged" true (Cache.Memo.mem t "w1");
  Alcotest.(check bool) "w2 merged" true (Cache.Memo.mem t "w2");
  let s = Cache.Memo.stats t in
  Alcotest.(check int) "misses summed across shards" 3 s.Cache.misses

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let persist = Cache.Memo.create ~name:"test.persist" ~schema:"v1" ()

let test_save_load_roundtrip () =
  fresh @@ fun () ->
  List.iter (fun k -> ignore (get persist k)) [ "a"; "b"; "c" ];
  let file = temp_file () in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Cache.save file;
  Cache.clear ();
  Alcotest.(check int) "cleared" 0 (Cache.Memo.length persist);
  Alcotest.(check bool) "load succeeds" true (Cache.load file);
  Alcotest.(check (list string)) "entries and recency restored" [ "c"; "b"; "a" ]
    (Cache.Memo.keys persist);
  let runs = ref 0 in
  let v = Cache.Memo.find_or_compute persist ~key:"b" (fun () -> incr runs; "x") in
  Alcotest.(check int) "loaded entry is a hit" 0 !runs;
  Alcotest.(check string) "loaded value intact" "v:b" v

let test_corrupted_file_ignored () =
  fresh @@ fun () ->
  ignore (get persist "k");
  let file = temp_file () in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Cache.save file;
  (* flip one payload byte: the checksum must catch it *)
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let bytes = really_input_string ic len |> Bytes.of_string in
  close_in ic;
  let last = Bytes.length bytes - 1 in
  Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lxor 0xff));
  let oc = open_out_bin file in
  output_bytes oc bytes;
  close_out oc;
  Cache.clear ();
  Alcotest.(check bool) "corrupted file rejected" false (Cache.load file);
  Alcotest.(check int) "table untouched" 0 (Cache.Memo.length persist)

let test_bad_files_ignored () =
  fresh @@ fun () ->
  let file = temp_file () in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let write s =
    let oc = open_out_bin file in
    output_string oc s;
    close_out oc
  in
  write "this is not a cache file\n";
  Alcotest.(check bool) "foreign file rejected" false (Cache.load file);
  write "RESOPTCACHE1\n";
  Alcotest.(check bool) "truncated file rejected" false (Cache.load file);
  write "";
  Alcotest.(check bool) "empty file rejected" false (Cache.load file);
  Alcotest.(check bool) "missing file rejected" false
    (Cache.load (file ^ ".does-not-exist"))

(* the on-disk layout, reproduced by hand: a magic line, a 16-digit
   hex FNV-1a of the payload, then the marshalled section list.  The
   record below matches Cache's internal section representation
   structurally — this test pins the format. *)
type fake_section = { p_name : string; p_schema : string; p_pairs : (string * string) list }

let fnv1a s =
  let h = ref 0xbf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h land max_int

let write_cache_file file sections =
  let payload = Marshal.to_string (sections : fake_section list) [] in
  let oc = open_out_bin file in
  Printf.fprintf oc "RESOPTCACHE1\n%016x\n" (fnv1a payload);
  output_string oc payload;
  close_out oc

let test_stale_sections_skipped () =
  fresh @@ fun () ->
  (* a well-formed file from an older build: one section whose schema
     tag no longer matches, one for a table that no longer exists, one
     current — only the current one may be absorbed *)
  let file = temp_file () in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  write_cache_file file
    [
      {
        p_name = "test.persist";
        p_schema = "v999";
        p_pairs = [ ("stale", Marshal.to_string "poison" []) ];
      };
      {
        p_name = "test.no-such-table";
        p_schema = "v1";
        p_pairs = [ ("orphan", Marshal.to_string "poison" []) ];
      };
      {
        p_name = "test.persist";
        p_schema = "v1";
        p_pairs = [ ("fresh", Marshal.to_string "v:fresh" []) ];
      };
    ];
  Alcotest.(check bool) "well-formed file loads" true (Cache.load file);
  Alcotest.(check bool) "stale-schema section skipped" false
    (Cache.Memo.mem persist "stale");
  Alcotest.(check bool) "current section absorbed" true
    (Cache.Memo.mem persist "fresh");
  Alcotest.(check string) "absorbed value intact" "v:fresh" (get persist "fresh")

(* ------------------------------------------------------------------ *)
(* Which paths memoize                                                 *)
(* ------------------------------------------------------------------ *)

let arb_mat =
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun r ->
      int_range 1 4 >>= fun c ->
      list_repeat (r * c) (int_range (-9) 9) >>= fun entries ->
      let a = Array.of_list entries in
      return (Mat.make r c (fun i j -> a.((i * c) + j))))
  in
  QCheck.make ~print:Mat.to_string gen

(* determinant-1 2x2 matrices as short products of the elementary
   transvections L(k), U(k) — the decomposition's own vocabulary *)
let arb_det1 =
  let gen =
    QCheck.Gen.(
      triple (int_range (-5) 5) (int_range (-5) 5) (int_range (-5) 5)
      >>= fun (k1, k2, k3) ->
      let l k = Mat.of_lists [ [ 1; 0 ]; [ k; 1 ] ] in
      let u k = Mat.of_lists [ [ 1; k ]; [ 0; 1 ] ] in
      return (Mat.mul (l k1) (Mat.mul (u k2) (l k3))))
  in
  QCheck.make ~print:Mat.to_string gen

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 50_000)

(* [f] with the cache off and on: the same result, and — these paths
   take microseconds and keep no memo table — nothing looked up or
   stored while the cache was on *)
let differential f m =
  Cache.disable ();
  let off = f m in
  fresh (fun () ->
      let on = f m in
      let s = Cache.stats () in
      off = on && (s.Cache.hits, s.Cache.misses, s.Cache.entries) = (0, 0, 0))

let diff_props =
  [
    prop "hermite row_style: cached = uncached" arb_mat
      (differential Hermite.row_style);
    prop "hermite col_style: cached = uncached" arb_mat
      (differential Hermite.col_style);
    prop "smith: cached = uncached" arb_mat (differential Smith.decompose);
    prop "unimodular inverse: cached = uncached" arb_det1
      (differential Unimodular.inverse);
    prop ~count:60 "hermite paper_right: cached = uncached" arb_det1
      (differential Hermite.paper_right);
    prop ~count:60 "decompose min_factors: cached = uncached" arb_det1
      (differential Decomp.Decompose.min_factors);
    prop ~count:60 "decompose euclid: cached = uncached" arb_det1
      (differential Decomp.Decompose.euclid);
  ]

let test_search_differential () =
  List.iter
    (fun bound ->
      Alcotest.(check bool)
        (Printf.sprintf "bound %d identical, no table" bound)
        true
        (differential (fun bound -> Decomp.Search.factor_histogram ~bound ()) bound))
    [ 1; 2; 3 ]

let test_cost_differential () =
  let w = Resopt.Workloads.find "example1" in
  let r =
    Resopt.Pipeline.run ~m:2 ~schedule:w.Resopt.Workloads.schedule
      w.Resopt.Workloads.nest
  in
  let faults =
    Machine.Fault.make ~seed:7 [ Machine.Fault.Flaky { link = None; prob = 0.05 } ]
  in
  List.iter
    (fun model ->
      Alcotest.(check bool)
        (model.Machine.Models.name ^ " breakdown identical, no table")
        true
        (differential (Resopt.Cost.of_plan ~faults model) r.Resopt.Pipeline.plan))
    [ Machine.Models.cm5 (); Machine.Models.paragon (); Machine.Models.t3d () ]

let plan_fingerprint (r : Resopt.Pipeline.result) =
  List.map
    (fun (e : Resopt.Commplan.entry) ->
      ( e.Resopt.Commplan.stmt,
        e.Resopt.Commplan.label,
        Resopt.Commplan.classification_name e.Resopt.Commplan.classification,
        e.Resopt.Commplan.vectorizable ))
    r.Resopt.Pipeline.plan

let pipeline_props =
  [
    prop ~count:40 "pipeline: cache on = cache off" arb_seed (fun seed ->
        let nest = Nestir.Gennest.generate ~seed:(seed + 5_000_000) in
        let run enable =
          Cache.scoped ~enable @@ fun () ->
          try Ok (plan_fingerprint (Resopt.Pipeline.run ~m:2 nest))
          with e -> Error e
        in
        Cache.disable ();
        let off = run false in
        Cache.clear ();
        let on = run true in
        Cache.clear ();
        match (off, on) with
        | Ok a, Ok b -> a = b
        | Error _, Error _ -> true
        | _ -> false);
  ]

(* The curated workloads end to end — the pipeline's solves, pricing
   on every model and the served answer — keep no table either: the
   per-function properties above, on real nests *)
let test_curated_keep_no_table () =
  fresh @@ fun () ->
  let models = [ Machine.Models.cm5 (); Machine.Models.paragon (); Machine.Models.t3d () ] in
  List.iter
    (fun (w : Resopt.Workloads.t) ->
      (match
         Resopt.Pipeline.run ~m:2 ~schedule:w.Resopt.Workloads.schedule
           w.Resopt.Workloads.nest
       with
      | exception Failure _ -> ()
      | r ->
        List.iter (fun model -> ignore (Resopt.Cost.of_plan model r.Resopt.Pipeline.plan)) models);
      ignore (Serve.Answer.of_request (Serve.Wire.run ~m:2 w.Resopt.Workloads.name)))
    (Resopt.Workloads.all ());
  let s = Cache.stats () in
  Alcotest.(check (list int)) "hits, misses, entries" [ 0; 0; 0 ]
    [ s.Cache.hits; s.Cache.misses; s.Cache.entries ];
  (* the validation memo is the one a sweep still hits *)
  ignore (Resopt.Sweep.run ~cache:true ~ms:[ 2 ] ());
  let cold = Cache.stats () in
  ignore (Resopt.Sweep.run ~cache:true ~ms:[ 2 ] ());
  let warm = Cache.stats () in
  Alcotest.(check bool) "the cold sweep validated" true (cold.Cache.misses > 0);
  Alcotest.(check int) "every warm lookup hits"
    (cold.Cache.hits + cold.Cache.misses)
    (warm.Cache.hits - cold.Cache.hits);
  Alcotest.(check int) "the warm sweep misses nothing" cold.Cache.misses
    warm.Cache.misses

(* ------------------------------------------------------------------ *)
(* Parallel safety: shared cache under Par                             *)
(* ------------------------------------------------------------------ *)

let strip_rows rows =
  List.map
    (fun (r : Resopt.Sweep.row) ->
      { r with Resopt.Sweep.time_ms = 0.0; cost_ms = 0.0 })
    rows

let test_sweep_parallel_cache () =
  Cache.disable ();
  Cache.clear ();
  let uncached = strip_rows (Resopt.Sweep.run ~ms:[ 2 ] ()) in
  Cache.clear ();
  let seq = strip_rows (Resopt.Sweep.run ~ms:[ 2 ] ~cache:true ()) in
  Cache.clear ();
  let par = strip_rows (Resopt.Sweep.run ~jobs:4 ~ms:[ 2 ] ~cache:true ()) in
  Cache.clear ();
  let warm =
    Cache.scoped ~enable:true (fun () ->
        ignore (Resopt.Sweep.run ~jobs:4 ~ms:[ 2 ] ());
        strip_rows (Resopt.Sweep.run ~jobs:4 ~ms:[ 2 ] ()))
  in
  Cache.clear ();
  Alcotest.(check bool) "cached jobs:1 = uncached" true (seq = uncached);
  Alcotest.(check bool) "cached jobs:4 = uncached" true (par = uncached);
  Alcotest.(check bool) "warm jobs:4 = uncached" true (warm = uncached);
  Alcotest.(check string) "CSV byte-identical" (Resopt.Sweep.to_csv uncached)
    (Resopt.Sweep.to_csv par)

let test_counters_consistent_after_merge () =
  Obs.enable ();
  Obs.reset ();
  Cache.clear ();
  Fun.protect ~finally:(fun () ->
      Cache.clear ();
      Obs.reset ();
      Obs.disable ())
  @@ fun () ->
  ignore (Resopt.Sweep.run ~jobs:4 ~ms:[ 1; 2 ] ~cache:true ());
  let lookups = Obs.counter "cache.lookups" in
  let hits = Obs.counter "cache.hits" in
  let misses = Obs.counter "cache.misses" in
  Alcotest.(check bool) "cache was exercised" true (lookups > 0);
  Alcotest.(check int) "hits + misses = lookups after worker merge" lookups
    (hits + misses)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cache"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "capacity bound" `Quick test_capacity_bound;
          Alcotest.test_case "hit/miss tallies" `Quick test_hit_miss_tallies;
          Alcotest.test_case "disabled passthrough" `Quick
            test_disabled_is_passthrough;
          Alcotest.test_case "scoped restores" `Quick test_scoped_restores;
          Alcotest.test_case "raising thunk not cached" `Quick
            test_raising_thunk_not_cached;
          Alcotest.test_case "find_opt = find_or_compute" `Quick
            test_find_opt_matches_find_or_compute;
        ] );
      ("worker", [ Alcotest.test_case "capture and merge" `Quick test_worker_merge ]);
      ( "persistence",
        [
          Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
          Alcotest.test_case "corrupted file ignored" `Quick
            test_corrupted_file_ignored;
          Alcotest.test_case "bad files ignored" `Quick test_bad_files_ignored;
          Alcotest.test_case "stale sections skipped" `Quick
            test_stale_sections_skipped;
        ] );
      ( "differential",
        diff_props
        @ [
            Alcotest.test_case "search histograms" `Quick test_search_differential;
            Alcotest.test_case "cost breakdowns" `Quick test_cost_differential;
          ]
        @ pipeline_props );
      ( "tables",
        [
          Alcotest.test_case "curated workloads keep no table" `Quick
            test_curated_keep_no_table;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "sweep: cached/parallel = uncached" `Quick
            test_sweep_parallel_cache;
          Alcotest.test_case "counters consistent after merge" `Quick
            test_counters_consistent_after_merge;
        ] );
    ]
