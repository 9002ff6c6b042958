(* The serve tower, bottom-up: framing (property-tested — malformed
   bytes must come back as structured errors, never exceptions), the
   wire encoding, the seed fold (one solve stamped with each fault
   seed), the shared backoff math, the crash-safe cache
   persistence, and finally an in-process server exercised end-to-end
   over real sockets: ok path byte-identical to the offline renderer,
   deadline -> timeout, full queue -> shed, coalesced concurrent
   clients, graceful drain, a snapshot/restart answering warm, and
   memo hits answered at admission while the solver is busy. *)

open Serve

(* ------------------------------------------------------------------ *)
(* Frame                                                               *)
(* ------------------------------------------------------------------ *)

(* The payload limit: a length header beyond it is refused. *)
let max_payload = 4 * 1024 * 1024

(* [Frame.read_fd] on one end of a socket pair, after [write] filled
   the other end and closed it; then the bytes left unread.  Every
   input here fits in the socket buffer, so [write] never blocks. *)
let read_back write =
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close r) @@ fun () ->
  Fun.protect ~finally:(fun () -> Unix.close w) (fun () -> write w);
  let first = Frame.read_fd r in
  let rest = Buffer.create 16 and b = Bytes.create 4096 in
  let rec drain () =
    match Unix.read r b 0 4096 with
    | 0 -> ()
    | n -> Buffer.add_subbytes rest b 0 n; drain ()
  in
  drain ();
  (first, Buffer.contents rest)

let raw s fd = ignore (Unix.write_substring fd s 0 (String.length s))

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"read_fd after write_fd s ^ rest = Ok s, rest unread" ~count:200
    QCheck.(pair string string)
    (fun (s, rest) ->
      read_back (fun fd -> Frame.write_fd fd s; raw rest fd) = (Ok s, rest))

let prop_frame_garbage_never_raises =
  QCheck.Test.make ~name:"read_fd never raises on garbage" ~count:500
    QCheck.string (fun junk ->
      match read_back (raw junk) with (Ok _ | Error _), _ -> true)

let test_frame_clean_eof () =
  match read_back (fun _ -> ()) with
  | Error `Eof, "" -> ()
  | _ -> Alcotest.fail "expected Eof"

let test_frame_truncated_header () =
  List.iter
    (fun got ->
      match read_back (raw (String.sub "\000\000\000\005" 0 got)) with
      | Error (`Error (Frame.Truncated { wanted = 4; got = g })), "" when g = got -> ()
      | _ -> Alcotest.failf "expected Truncated {wanted=4; got=%d}" got)
    [ 1; 2; 3 ]

let test_frame_truncated_payload () =
  let payload = "hello world" in
  let len = String.length payload in
  List.iter
    (fun k ->
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 (Int32.of_int len);
      match read_back (raw (Bytes.to_string header ^ String.sub payload 0 k)) with
      | Error (`Error (Frame.Truncated { wanted; got })), "" ->
        Alcotest.(check int) "wanted" (4 + len) wanted;
        Alcotest.(check int) "got" (4 + k) got
      | _ -> Alcotest.failf "expected Truncated after %d payload bytes" k)
    [ 0; 1; len - 3; len - 1 ]

let test_frame_oversized () =
  (* a length header of 0xFFFFFFFF — what random garbage usually
     claims — must be refused as Oversized, not attempted *)
  match read_back (raw "\xff\xff\xff\xffjunk") with
  | Error (`Error (Frame.Oversized { length; limit })), _ ->
    Alcotest.(check bool) "length > limit" true (length > limit);
    Alcotest.(check int) "limit" max_payload limit
  | _ -> Alcotest.fail "expected Oversized"

let test_frame_encode_rejects_oversized () =
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close r; Unix.close w) @@ fun () ->
  Alcotest.check_raises "write_fd beyond the payload limit"
    (Invalid_argument
       (Printf.sprintf "Frame.encode: payload %d > max %d" (max_payload + 1) max_payload))
    (fun () -> Frame.write_fd w (String.make (max_payload + 1) 'x'))

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)
(* ------------------------------------------------------------------ *)

let sample_requests =
  [
    Wire.ping;
    Wire.stats;
    Wire.run "example1";
    Wire.run ~m:3 "matmul";
    Wire.run ~m:1 ~faults:"flaky:0.05" ~fseed:42 "example1";
    Wire.run ~map:"greedy" ~mseed:7 "gauss";
    {
      (Wire.run ~m:2 ~faults:"flaky:0.1;down:3-4" ~fseed:1 ~map:"search" ~mseed:3
         "example5")
      with
      Wire.deadline_ms = Some 250;
    };
    { (Wire.run "lu") with Wire.deadline_ms = Some 0 };
  ]

let test_wire_request_roundtrip () =
  List.iter
    (fun r ->
      match Wire.decode_request (Wire.encode_request r) with
      | Ok r' ->
        Alcotest.(check bool) "request round-trips" true (r = r')
      | Error e -> Alcotest.fail ("decode failed: " ^ e))
    sample_requests

let test_wire_solve_key_ignores_deadline () =
  let a = { (Wire.run ~m:2 "example1") with Wire.deadline_ms = Some 5 } in
  let b = { (Wire.run ~m:2 "example1") with Wire.deadline_ms = Some 5000 } in
  let c = Wire.run ~m:2 "example1" in
  Alcotest.(check string) "same key across deadlines" (Wire.solve_key a)
    (Wire.solve_key b);
  Alcotest.(check string) "same key without deadline" (Wire.solve_key a)
    (Wire.solve_key c);
  Alcotest.(check bool) "different m, different key" true
    (Wire.solve_key a <> Wire.solve_key (Wire.run ~m:3 "example1"));
  (* map=none is no mapping: both spellings are one solve *)
  Alcotest.(check string) "map=none shares the unmapped key"
    (Wire.solve_key (Wire.run "example1"))
    (Wire.solve_key (Wire.run ~map:"none" ~mseed:3 "example1"));
  match
    Wire.decode_request
      "resopt-serve/1\nop=run\nworkload=example1\nm=2\nmap=none\nmseed=3\n"
  with
  | Ok r ->
    Alcotest.(check string) "decoded map=none shares the unmapped key"
      (Wire.solve_key (Wire.run "example1"))
      (Wire.solve_key r)
  | Error e -> Alcotest.fail ("decode failed: " ^ e)

(* Folding the seed is sound: identity and greedy never read it, so a
   seed-7 request has the seed-0 key and the seed-0 bytes — checked
   against answers rendered from the raw, unfolded seed, the way a
   server without the fold would compute them. *)
let test_wire_folds_unread_seed () =
  Alcotest.(check bool) "Mapping.spec drops a greedy seed" true
    (Mapping.spec ~seed:5 Mapping.Greedy = Mapping.spec Mapping.Greedy);
  Alcotest.(check bool) "search keeps its seeds apart" true
    (Wire.solve_key (Wire.run ~map:"search" ~mseed:0 "example1")
    <> Wire.solve_key (Wire.run ~map:"search" ~mseed:7 "example1"));
  Cache.scoped ~enable:false @@ fun () ->
  List.iter
    (fun (w : Resopt.Workloads.t) ->
      let name = w.Resopt.Workloads.name in
      List.iter
        (fun m ->
          List.iter
            (fun (map, kind) ->
              let label = Printf.sprintf "%s m=%d map=%s" name m map in
              let folded = Wire.run ~m ~map ~mseed:0 name in
              let sent =
                Printf.sprintf
                  "resopt-serve/1\nop=run\nworkload=%s\nm=%d\nmap=%s\nmseed=7\n" name
                  m map
              in
              (match Wire.decode_request sent with
              | Ok r ->
                Alcotest.(check string) (label ^ ": decoded key") (Wire.solve_key folded)
                  (Wire.solve_key r)
              | Error e -> Alcotest.fail ("decode failed: " ^ e));
              Alcotest.(check string) (label ^ ": built key") (Wire.solve_key folded)
                (Wire.solve_key (Wire.run ~m ~map ~mseed:7 name));
              let want =
                match Answer.of_request folded with
                | Ok s -> s
                | Error e -> Alcotest.fail e
              in
              Alcotest.(check (result string string)) (label ^ ": answer") (Ok want)
                (Answer.of_request { folded with Wire.mseed = 7 });
              let raw = { Mapping.kind; seed = 7 } in
              Alcotest.(check string) (label ^ ": unfolded spec") want
                (Answer.render ~mapping:raw ~m w))
            [ ("identity", Mapping.Identity); ("greedy", Mapping.Greedy) ])
        [ 1; 2; 3 ])
    (Resopt.Workloads.all ())

(* ------------------------------------------------------------------ *)
(* Seed fold: one solve serves every fault seed                        *)
(* ------------------------------------------------------------------ *)

(* The server solves a request once for every fault seed and stamps
   each request's own seed in afterwards.  That is sound only while no
   price reads the seed, so the stamped bytes are checked against
   [render] with a fault model carrying the real seed: the first price
   to read [Fault.seed] fails here, before the server answers one seed
   with another seed's numbers. *)
let fold_seeds = [ 0; 1; 9; 63 ]

let test_seed_fold_bytes () =
  Cache.scoped ~enable:false @@ fun () ->
  let must = function Ok s -> s | Error e -> Alcotest.fail e in
  List.iter
    (fun (w : Resopt.Workloads.t) ->
      let name = w.Resopt.Workloads.name in
      List.iter
        (fun m ->
          List.iter
            (fun map ->
              let mapping =
                Option.map
                  (fun k -> Mapping.spec (Option.get (Mapping.kind_of_string k)))
                  map
              in
              List.iter
                (fun faults ->
                  let label =
                    Printf.sprintf "%s m=%d map=%s faults=%s" name m
                      (Option.value map ~default:"none") faults
                  in
                  let specs = must (Machine.Fault.parse faults) in
                  let base = Wire.run ~m ~faults ?map name in
                  let solved = must (Answer.solve base) in
                  (match solved with
                  | Answer.Seeded _ -> ()
                  | Answer.Unseeded _ -> Alcotest.fail (label ^ ": seed not cut out"));
                  List.iter
                    (fun seed ->
                      let r = Wire.run ~m ~faults ~fseed:seed ?map name in
                      let label = Printf.sprintf "%s seed=%d" label seed in
                      let stamped = Answer.stamp r solved in
                      Alcotest.(check (result string string)) (label ^ ": of_request")
                        (Ok stamped) (Answer.of_request r);
                      Alcotest.(check string) (label ^ ": render") stamped
                        (Answer.render ~faults:(Machine.Fault.make ~seed specs) ?mapping ~m w);
                      Alcotest.(check string) (label ^ ": work_key") (Wire.work_key base)
                        (Wire.work_key r))
                    fold_seeds;
                  Alcotest.(check int) (label ^ ": one solve_key per seed")
                    (List.length fold_seeds)
                    (List.length
                       (List.sort_uniq compare
                          (List.map
                             (fun seed -> Wire.solve_key (Wire.run ~m ~faults ~fseed:seed ?map name))
                             fold_seeds))))
                [ "flaky:0.05"; "flaky:0.1;down:3-4"; "flaky:0.3;degrade:0.5" ];
              (* no fault model prints no seed: the solve is the answer *)
              let r = Wire.run ~m ?map name in
              let label = Printf.sprintf "%s m=%d map=%s" name m (Option.value map ~default:"none") in
              match must (Answer.solve r) with
              | Answer.Unseeded body ->
                List.iter
                  (fun seed ->
                    Alcotest.(check string) (label ^ ": unseeded stamps to itself") body
                      (Answer.stamp { r with Wire.fseed = seed } (Answer.Unseeded body)))
                  fold_seeds;
                Alcotest.(check string) (label ^ ": unseeded = render") body
                  (Answer.render ?mapping ~m w)
              | Answer.Seeded _ -> Alcotest.fail (label ^ ": no faults, yet seeded"))
            [ None; Some "greedy" ])
        [ 1; 2; 3 ])
    (Resopt.Workloads.all ())

let test_wire_request_rejects () =
  let bad s =
    match Wire.decode_request s with
    | Ok _ -> Alcotest.fail ("accepted: " ^ s)
    | Error _ -> ()
  in
  bad "";
  bad "not a request";
  bad "resopt-serve/2\nop=run\nworkload=x\n";
  bad "resopt-serve/1\nop=launch\n";
  bad "resopt-serve/1\nop=run\nm=2\n" (* run without workload *);
  bad "resopt-serve/1\nop=run\nworkload=x\nm=wat\n";
  bad "resopt-serve/1\nop=run\nworkload=x\nm=0\n";
  bad "resopt-serve/1\nop=run\nworkload=x\nfrobnicate=1\n"

let test_wire_response_roundtrip () =
  List.iter
    (fun r ->
      match Wire.decode_response (Wire.encode_response r) with
      | Ok r' -> Alcotest.(check bool) "response round-trips" true (r = r')
      | Error e -> Alcotest.fail ("decode failed: " ^ e))
    [
      Wire.Answer "multi\nline\nbody\n";
      Wire.Answer "";
      Wire.Shed "queue full (64 pending)";
      Wire.Timeout "deadline 250ms expired";
      Wire.Failed "unknown workload nope";
    ];
  match Wire.decode_response "weird\nbody" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown status"

(* ------------------------------------------------------------------ *)
(* Backoff (shared with Fault's retransmission protocol)               *)
(* ------------------------------------------------------------------ *)

let test_backoff_matches_fault () =
  (* the client retry delays and the simulator's retransmission waits
     are the same function; pin them to each other *)
  for attempt = 1 to 20 do
    Alcotest.(check int)
      (Printf.sprintf "attempt %d" attempt)
      (Machine.Fault.backoff ~attempt)
      (Machine.Backoff.exp_delay ~base:128 ~cap:4096 ~attempt)
  done

let test_backoff_jitter_bounds () =
  let b = Machine.Backoff.make ~jitter:0.5 ~seed:9 ~base:50 ~cap:1000 in
  for attempt = 1 to 12 do
    let full = Machine.Backoff.exp_delay ~base:50 ~cap:1000 ~attempt in
    let d = Machine.Backoff.delay b ~attempt in
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d in [half, full]" attempt)
      true
      (d >= full / 2 && d <= full);
    Alcotest.(check int) "deterministic" d (Machine.Backoff.delay b ~attempt)
  done

let test_backoff_no_jitter_is_exp () =
  let b = Machine.Backoff.make ~jitter:0.0 ~seed:0 ~base:128 ~cap:4096 in
  List.iter
    (fun (attempt, want) ->
      Alcotest.(check int)
        (Printf.sprintf "attempt %d" attempt)
        want
        (Machine.Backoff.delay b ~attempt))
    [ (1, 128); (2, 256); (3, 512); (6, 4096); (50, 4096) ]

let test_backoff_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "base 0" true
    (bad (fun () -> Machine.Backoff.make ~jitter:0.0 ~seed:0 ~base:0 ~cap:10));
  Alcotest.(check bool) "cap < base" true
    (bad (fun () -> Machine.Backoff.make ~jitter:0.0 ~seed:0 ~base:10 ~cap:5));
  Alcotest.(check bool) "jitter > 1" true
    (bad (fun () -> Machine.Backoff.make ~jitter:1.5 ~seed:0 ~base:1 ~cap:2))

let prop_hash_unit_in_range =
  QCheck.Test.make ~name:"hash_unit in [0, 1)" ~count:500
    QCheck.(pair small_int (small_list small_int))
    (fun (seed, ks) ->
      let u = Machine.Backoff.hash_unit ~seed ks in
      u >= 0.0 && u < 1.0)

(* ------------------------------------------------------------------ *)
(* Cache: atomic save, visible corrupt loads                           *)
(* ------------------------------------------------------------------ *)

let save_table : string Cache.Memo.t =
  Cache.Memo.create ~name:"test_serve.save" ~schema:"v1" ()

let test_cache_save_atomic () =
  let file = Filename.temp_file "serve_cache" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Cache.scoped ~enable:true (fun () ->
          Cache.Memo.add save_table ~key:"k" "v";
          Cache.save file;
          (* the temp staging file must be gone: only the complete,
             renamed-into-place file remains *)
          Alcotest.(check bool) "no .tmp left" false
            (Sys.file_exists (file ^ ".tmp"));
          Alcotest.(check bool) "file exists" true (Sys.file_exists file);
          Alcotest.(check bool) "loads back" true (Cache.load file)))

let test_cache_corrupt_load_counted () =
  let file = Filename.temp_file "serve_corrupt" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove file with Sys_error _ -> ());
      Obs.reset ();
      Obs.disable ())
    (fun () ->
      Obs.enable ();
      Obs.reset ();
      let oc = open_out_bin file in
      output_string oc "RESOPTCACHE1\ndeadbeefdeadbeef\ngarbage payload";
      close_out oc;
      Alcotest.(check bool) "corrupt load returns false" false (Cache.load file);
      Alcotest.(check int) "corrupt load counted" 1
        (Obs.counter "cache.load_corrupt");
      (* a merely missing file is a normal cold start, not corruption *)
      Alcotest.(check bool) "missing load returns false" false
        (Cache.load (file ^ ".nope"));
      Alcotest.(check int) "missing load not counted" 1
        (Obs.counter "cache.load_corrupt"))

(* ------------------------------------------------------------------ *)
(* Server end-to-end                                                   *)
(* ------------------------------------------------------------------ *)

let local_server ?(jobs = 1) ?(max_queue = 64) ?(deadline_ms = 0) ?cache_file ()
    =
  let cfg =
    {
      (Server.default_config (Wire.Tcp ("127.0.0.1", 0))) with
      Server.jobs;
      max_queue;
      deadline_ms;
      snapshot_every = 1;
      cache_file;
    }
  in
  Server.start cfg

let with_server ?jobs ?max_queue ?deadline_ms ?cache_file f =
  let t = local_server ?jobs ?max_queue ?deadline_ms ?cache_file () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Server.wait t)
    (fun () -> f t)

let must_connect t =
  match Client.connect (Server.address t) with
  | Ok c -> c
  | Error e -> Alcotest.fail ("connect: " ^ e)

let must_request c req =
  match Client.request c req with
  | Ok r -> r
  | Error e -> Alcotest.fail ("request: " ^ e)

let test_server_ok_bytes () =
  (* oracle computed before the server exists: afterwards the solver
     thread owns the ambient Cache/Obs state *)
  let req = Wire.run ~m:2 ~faults:"flaky:0.05" ~fseed:42 "example1" in
  let expected =
    match Answer.of_request req with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  with_server @@ fun t ->
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match must_request c req with
  | Wire.Answer body ->
    Alcotest.(check string) "served bytes = offline CLI bytes" expected body
  | r -> Alcotest.fail ("expected Answer, got " ^ Wire.status r));
  match must_request c Wire.ping with
  | Wire.Answer "pong" -> ()
  | _ -> Alcotest.fail "expected pong"

(* an integer line [key=N] of a stats answer *)
let stat body key =
  let prefix = key ^ "=" and n = String.length key + 1 in
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then
        int_of_string_opt (String.sub l n (String.length l - n))
      else None)
    (String.split_on_char '\n' body)

let test_server_repeat_and_stats () =
  with_server @@ fun t ->
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let req = Wire.run ~m:1 "matmul" in
  let a = must_request c req in
  let b = must_request c req in
  Alcotest.(check bool) "repeat serves identical bytes" true (a = b);
  match must_request c Wire.stats with
  | Wire.Answer body ->
    let has needle =
      Alcotest.(check bool) ("stats mention " ^ needle) true
        (let re = Str.regexp_string needle in
         try ignore (Str.search_forward re body 0); true
         with Not_found -> false)
    in
    has "requests=";
    has "ok=";
    has "cache_hits=";
    (* the response memo's own tallies; the repeat above was a hit *)
    has "responses_misses=";
    has "responses_entries=";
    Alcotest.(check bool) "the repeat hit the response memo" true
      (Option.value (stat body "responses_hits") ~default:0 >= 1);
    (* two solves went through, so the latency histogram has samples
       and the bounds pipeline ran for (matmul, 1) *)
    has "latency_ms_p50=";
    has "latency_ms_p95=";
    has "latency_ms_p99=";
    has "bounds_computed=";
    has "bounds_eff_last="
  | r -> Alcotest.fail ("expected stats Answer, got " ^ Wire.status r)

let test_server_deadline_timeout () =
  (* deadline 0 expires immediately — but if the scheduler runs the
     solver to completion before this thread even reaches its wait, the
     server rightly hands over the finished answer instead.  So: fresh
     solve keys (the memo can never answer instantly), every outcome
     must be a named Timeout or the correct bytes, and across attempts
     at least one must actually time out. *)
  let reqs =
    List.init 5 (fun i ->
        { (Wire.run ~m:3 ~map:"search" ~mseed:i "lu") with Wire.deadline_ms = Some 0 })
  in
  let expected =
    List.map
      (fun r ->
        match Answer.of_request { r with Wire.deadline_ms = None } with
        | Ok s -> s
        | Error e -> Alcotest.fail e)
      reqs
  in
  with_server @@ fun t ->
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let timeouts = ref 0 in
  List.iter2
    (fun req want ->
      match must_request c req with
      | Wire.Timeout msg ->
        incr timeouts;
        Alcotest.(check string) "timeout names the deadline"
          "deadline 0ms expired" msg
      | Wire.Answer got ->
        (* the solve outran us — fine, but only with the right bytes *)
        Alcotest.(check string) "raced answer still correct" want got
      | r -> Alcotest.fail ("expected Timeout or Answer, got " ^ Wire.status r))
    reqs expected;
  Alcotest.(check bool) "at least one attempt timed out" true (!timeouts > 0)

(* Open descriptors of this process, or None where /proc is absent. *)
let open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | fds -> Some (Array.length fds)
  | exception Sys_error _ -> None

let test_server_conn_pipe_no_leak () =
  with_server @@ fun t ->
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let ask () =
    match must_request c (Wire.run ~m:1 "example1") with
    | Wire.Answer _ -> ()
    | r -> Alcotest.fail ("expected Answer, got " ^ Wire.status r)
  in
  ask ();
  match open_fds () with
  | None -> ()
  | Some first ->
    for _ = 2 to 200 do
      ask ()
    done;
    Alcotest.(check (option int)) "open fds after 200 requests" (Some first) (open_fds ())

let test_server_timeout_leaves_no_stale_wakeup () =
  (* a timed-out waiter unregisters, so the solve's completion byte
     never reaches the pipe the next request on the connection waits
     on *)
  let want =
    match Answer.of_request (Wire.run "example1") with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  with_server @@ fun t ->
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match
     must_request c
       { (Wire.run ~m:3 ~map:"search" ~mseed:41 "lu") with Wire.deadline_ms = Some 0 }
   with
  | Wire.Timeout _ | Wire.Answer _ -> ()
  | r -> Alcotest.fail ("expected Timeout or Answer, got " ^ Wire.status r));
  match must_request c (Wire.run "example1") with
  | Wire.Answer got -> Alcotest.(check string) "the request's own answer" want got
  | r -> Alcotest.fail ("expected Answer, got " ^ Wire.status r)

let test_server_signal_does_not_time_out () =
  (* signals interrupt the waiter's select; without a deadline only the
     answer may end the wait.  The kernel hands a process signal to the
     first thread that wants it, nearly always the busy solver, so each
     round sends two distinct signals: while the first is pending on the
     solver, the second moves on to the other server threads, the
     waiting connection thread among them.  (Three per round crashed
     the test process under OCaml 5.1.)  This thread and the signalling
     one block both.  The no-op handlers stay installed: a late
     delivery must not kill the test process. *)
  let signals = [ Sys.sigusr1; Sys.sigusr2 ] in
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle ignore)) signals;
  let reqs =
    List.init 12 (fun i ->
        Wire.run ~faults:"flaky:0.5;degrade:0.5" ~map:"search" ~mseed:(100 + i) "transpose")
  in
  let expected =
    List.map
      (fun r -> match Answer.of_request r with Ok s -> s | Error e -> Alcotest.fail e)
      reqs
  in
  with_server @@ fun t ->
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let mask = Thread.sigmask Unix.SIG_BLOCK signals in
  let stop = Atomic.make false in
  let signaller =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          List.iter (Unix.kill (Unix.getpid ())) signals;
          Thread.delay 0.0005
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join signaller;
      ignore (Thread.sigmask Unix.SIG_SETMASK mask))
    (fun () ->
      List.iter2
        (fun req want ->
          match must_request c req with
          | Wire.Answer got -> Alcotest.(check string) "answer despite signals" want got
          | r -> Alcotest.fail ("expected Answer, got " ^ Wire.status r))
        reqs expected)

let test_server_sheds_when_full () =
  with_server ~max_queue:0 @@ fun t ->
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match must_request c (Wire.run "example1") with
  | Wire.Shed _ -> ()
  | r -> Alcotest.fail ("expected Shed, got " ^ Wire.status r)

let test_server_malformed_frame () =
  with_server @@ fun t ->
  let port =
    match Server.address t with Wire.Tcp (_, p) -> p | _ -> assert false
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* a frame header claiming 4 GiB: the server must answer with a
     structured error, not die or hang *)
  let garbage = Bytes.of_string "\xff\xff\xff\xff\x00\x00" in
  ignore (Unix.write fd garbage 0 (Bytes.length garbage));
  match Frame.read_fd fd with
  | Ok payload -> (
    match Wire.decode_response payload with
    | Ok (Wire.Failed msg) ->
      Alcotest.(check bool) "names oversize" true
        (String.length msg > 0
        && Str.string_match (Str.regexp ".*oversized.*") msg 0)
    | _ -> Alcotest.fail "expected a Failed response")
  | Error _ -> Alcotest.fail "expected a framed error response"

let test_server_unknown_workload () =
  with_server @@ fun t ->
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match must_request c (Wire.run "no_such_workload") with
  | Wire.Failed msg ->
    Alcotest.(check bool) "names the workload" true
      (Str.string_match (Str.regexp ".*no_such_workload.*") msg 0)
  | r -> Alcotest.fail ("expected Failed, got " ^ Wire.status r)

(* The one-shot client under the load generator's backoff at seed 0. *)
let call addr req = Client.call ~backoff:(Client.default_backoff ~seed:0) addr req

let test_server_concurrent_clients () =
  let reqs =
    [ Wire.run ~m:1 "example1"; Wire.run ~m:2 "gauss"; Wire.run ~m:1 "example1" ]
  in
  let expected =
    List.map
      (fun r ->
        match Answer.of_request r with Ok s -> s | Error e -> Alcotest.fail e)
      reqs
  in
  with_server ~jobs:2 @@ fun t ->
  let addr = Server.address t in
  let results = Array.make (List.length reqs) None in
  let ths =
    List.mapi
      (fun i req ->
        Thread.create
          (fun () -> results.(i) <- Some (call addr req))
          ())
      reqs
  in
  List.iter Thread.join ths;
  List.iteri
    (fun i want ->
      match results.(i) with
      | Some (Ok (Wire.Answer got)) ->
        Alcotest.(check string)
          (Printf.sprintf "client %d bytes" i)
          want got
      | Some (Ok r) -> Alcotest.fail ("client got " ^ Wire.status r)
      | Some (Error e) -> Alcotest.fail e
      | None -> Alcotest.fail "client never finished")
    expected

let test_server_drain_refuses_new_work () =
  let t = local_server () in
  let addr = Server.address t in
  (* a request before the drain works *)
  (match call addr (Wire.run ~m:1 "example2") with
  | Ok (Wire.Answer _) -> ()
  | _ -> Alcotest.fail "pre-drain request failed");
  Server.stop t;
  Server.wait t;
  (* fully drained: the socket is gone *)
  match Client.connect addr with
  | Error _ -> ()
  | Ok c ->
    (* the listener may linger closed-but-bound on some stacks; any
       admitted request must still be refused as shedding *)
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    (match Client.request c (Wire.run "example1") with
    | Ok (Wire.Shed _) | Error _ -> ()
    | Ok r -> Alcotest.fail ("expected refusal, got " ^ Wire.status r))

let test_server_snapshot_restart_warm () =
  let file = Filename.temp_file "serve_snap" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let req = Wire.run ~m:1 "gauss" in
      let answer_of t =
        match call (Server.address t) req with
        | Ok (Wire.Answer s) -> s
        | Ok r -> Alcotest.fail ("expected Answer, got " ^ Wire.status r)
        | Error e -> Alcotest.fail e
      in
      let a = with_server ~cache_file:file answer_of in
      (* simulate the restart: drop every in-memory entry, then start a
         fresh server on the snapshot file *)
      Cache.clear ();
      Alcotest.(check int) "cleared" 0 (Cache.stats ()).Cache.entries;
      let entries_after_load, b =
        with_server ~cache_file:file (fun t ->
            ((Cache.stats ()).Cache.entries, answer_of t))
      in
      Alcotest.(check bool) "snapshot repopulated the tables" true
        (entries_after_load > 0);
      Alcotest.(check string) "warm restart serves identical bytes" a b)

(* one counter of a fresh stats answer *)
let stats_value c key =
  match must_request c Wire.stats with
  | Wire.Answer body -> (
    match stat body key with
    | Some v -> v
    | None -> Alcotest.fail ("stats without " ^ key))
  | r -> Alcotest.fail ("expected stats Answer, got " ^ Wire.status r)

let distinct f l = List.length (List.sort_uniq compare (List.map f l))

let test_server_one_solve_per_work_key () =
  (* the loadgen mix over 64 fault seeds, every body checked against
     its own offline answer (computed before the server exists), and
     the response memo emptied first so each miss is one solve *)
  let reqs = Loadgen.mix ~seed:1 ~n:600 () in
  let expected = Hashtbl.create 256 in
  List.iter
    (fun r ->
      let key = Wire.solve_key r in
      if not (Hashtbl.mem expected key) then
        Hashtbl.add expected key (Answer.of_request r))
    reqs;
  let work_keys = distinct Wire.work_key reqs in
  Alcotest.(check bool) "the mix repeats solves across fault seeds" true
    (work_keys < Hashtbl.length expected && work_keys <= 132);
  Cache.clear ();
  with_server @@ fun t ->
  let clients = 2 in
  let mismatches = Array.make clients 0 and failures = Array.make clients 0 in
  let worker c =
    match Client.connect (Server.address t) with
    | Error _ -> failures.(c) <- failures.(c) + 1
    | Ok conn ->
      Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
      List.iteri
        (fun i r ->
          if i mod clients = c then
            match Client.request conn r with
            | Ok (Wire.Answer body) ->
              if Hashtbl.find expected (Wire.solve_key r) <> Ok body then
                mismatches.(c) <- mismatches.(c) + 1
            | _ -> failures.(c) <- failures.(c) + 1)
        reqs
  in
  List.iter Thread.join (List.init clients (fun c -> Thread.create worker c));
  let sum = Array.fold_left ( + ) 0 in
  Alcotest.(check int) "every request answered" 0 (sum failures);
  Alcotest.(check int) "every body is its own request's answer" 0 (sum mismatches);
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let misses = stats_value c "responses_misses" in
  let hits = stats_value c "responses_hits" in
  Alcotest.(check int) "one solve per work key" work_keys misses;
  Alcotest.(check int) "every request hit, missed or coalesced" (List.length reqs)
    (misses + hits + stats_value c "coalesced");
  (* the response memo is the only table a served request reaches *)
  Alcotest.(check (pair int int)) "cache_hits/misses are the response memo's"
    (hits, misses)
    (stats_value c "cache_hits", stats_value c "cache_misses")

let test_server_seeds_share_one_solve () =
  (* two slow requests that differ only in their fault seed, sent at
     once: one solve (coalesced or answered from the memo), each body
     carrying its own seed *)
  let reqs =
    List.map
      (fun fseed -> Wire.run ~faults:"flaky:0.5" ~fseed ~map:"search" ~mseed:5 "transpose")
      [ 3; 4 ]
  in
  let expected =
    List.map
      (fun r -> match Answer.of_request r with Ok s -> s | Error e -> Alcotest.fail e)
      reqs
  in
  Alcotest.(check bool) "the two answers differ" true
    (List.nth expected 0 <> List.nth expected 1);
  Cache.clear ();
  with_server @@ fun t ->
  let addr = Server.address t in
  let results = Array.make 2 None in
  List.mapi
    (fun i req ->
      Thread.create (fun () -> results.(i) <- Some (call addr req)) ())
    reqs
  |> List.iter Thread.join;
  List.iteri
    (fun i want ->
      match results.(i) with
      | Some (Ok (Wire.Answer got)) ->
        Alcotest.(check string) (Printf.sprintf "client %d: its own seed's bytes" i) want got
      | Some (Ok r) -> Alcotest.fail ("client got " ^ Wire.status r)
      | Some (Error e) -> Alcotest.fail e
      | None -> Alcotest.fail "client never finished")
    expected;
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Alcotest.(check int) "one solve for both seeds" 1 (stats_value c "responses_misses");
  Alcotest.(check int) "the other coalesced or hit" 1
    (stats_value c "responses_hits" + stats_value c "coalesced")

(* ------------------------------------------------------------------ *)
(* Hit path: memo hits answered at admission                           *)
(* ------------------------------------------------------------------ *)

let offline r = match Answer.of_request r with Ok s -> s | Error e -> Alcotest.fail e

(* distinct slow misses: a mapping search over three machine models *)
let slow_misses ~from n =
  List.init n (fun i ->
      Wire.run ~m:2 ~faults:"flaky:0.5" ~map:"search" ~mseed:(from + i) "example1")

(* Send every request of [reqs] at once, one connection each.  Returns
   the threads and a function giving, once they are joined, each
   request's (wall time answered, response). *)
let fire t reqs =
  let n = List.length reqs in
  let out = Array.make n None in
  let conns = List.map (fun _ -> must_connect t) reqs in
  let ths =
    List.mapi
      (fun i (c, r) ->
        Thread.create
          (fun () ->
            let resp = Client.request c r in
            out.(i) <- Some (Unix.gettimeofday (), resp);
            Client.close c)
          ())
      (List.combine conns reqs)
  in
  (ths, fun () -> Array.to_list out)

(* each response is the expected answer *)
let check_answers wants results =
  List.iter2
    (fun want res ->
      match res with
      | Some (_, Ok (Wire.Answer got)) -> Alcotest.(check string) "answer bytes" want got
      | Some (_, Ok resp) -> Alcotest.fail ("expected Answer, got " ^ Wire.status resp)
      | Some (_, Error e) -> Alcotest.fail e
      | None -> Alcotest.fail "client never finished")
    wants results

let test_hit_while_solver_busy () =
  (* a hit with deadline 0, sent while a batch of slow misses keeps the
     solver busy: answered on its own connection thread, it neither
     waits for the batch nor times out *)
  let warm = Wire.run ~m:1 ~faults:"flaky:0.1" ~fseed:3 "example1" in
  let hit = { warm with Wire.fseed = 8; deadline_ms = Some 0 } in
  let misses = slow_misses ~from:300 32 in
  let want_hit = offline { hit with Wire.deadline_ms = None } in
  let want_misses = List.map offline misses in
  Cache.clear ();
  with_server @@ fun t ->
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  ignore (must_request c warm : Wire.response);
  let ths, results = fire t misses in
  Thread.delay 0.02;
  let resp = must_request c hit in
  let t_hit = Unix.gettimeofday () in
  List.iter Thread.join ths;
  let results = results () in
  check_answers want_misses results;
  (match resp with
  | Wire.Answer got -> Alcotest.(check string) "the hit's own seed's bytes" want_hit got
  | r -> Alcotest.fail ("expected the hit's Answer, got " ^ Wire.status r));
  let last_miss =
    List.fold_left
      (fun acc res -> match res with Some (at, _) -> Float.max acc at | None -> acc)
      0.0 results
  in
  Alcotest.(check bool) "the hit came back before the batch finished" true
    (t_hit < last_miss)

let test_hits_during_par_fan_out () =
  (* at jobs 2 a batch of distinct misses fans out over Par, whose
     slot 0 runs on the solver's own domain; hits arriving from
     another client meanwhile must still find the memo, never miss and
     re-solve *)
  let warm =
    [ Wire.run ~m:1 "example1"; Wire.run ~m:2 "gauss";
      Wire.run ~m:1 ~faults:"flaky:0.1" ~fseed:1 "transpose" ]
  in
  let hits = List.concat_map (fun fseed -> List.map (fun r -> { r with Wire.fseed }) warm) [ 2; 3 ] in
  let waves = List.init 4 (fun i -> slow_misses ~from:(400 + (100 * i)) 8) in
  let want_hits = List.map offline hits in
  let want_waves = List.map (List.map offline) waves in
  Cache.clear ();
  with_server ~jobs:2 @@ fun t ->
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  List.iter (fun r -> ignore (must_request c r : Wire.response)) warm;
  let stop = Atomic.make false and sent = ref 0 and bad = ref 0 in
  let hitter =
    Thread.create
      (fun () ->
        let h = must_connect t in
        while not (Atomic.get stop) do
          List.iter2
            (fun r want ->
              incr sent;
              match Client.request h r with
              | Ok (Wire.Answer got) when got = want -> ()
              | _ -> incr bad)
            hits want_hits
        done;
        Client.close h)
      ()
  in
  List.iter2
    (fun wave wants ->
      let ths, results = fire t wave in
      List.iter Thread.join ths;
      check_answers wants (results ()))
    waves want_waves;
  Atomic.set stop true;
  Thread.join hitter;
  Alcotest.(check int) "every hit answered with its own bytes" 0 !bad;
  let all = warm @ hits @ List.concat waves in
  let misses = stats_value c "responses_misses" in
  Alcotest.(check int) "one solve per work key" (distinct Wire.work_key all) misses;
  Alcotest.(check int) "every request hit, missed or coalesced"
    (List.length warm + !sent + List.length (List.concat waves))
    (misses + stats_value c "responses_hits" + stats_value c "coalesced")

let test_restart_answers_from_memo () =
  (* after a restart from the cache file, every known work key is a
     hit, whatever fault seed asks for it *)
  let reqs =
    [ Wire.run ~m:1 "matmul"; Wire.run ~m:2 ~map:"greedy" "stencil";
      Wire.run ~m:2 ~faults:"flaky:0.2" ~fseed:4 "lu" ]
  in
  let again = List.map (fun r -> { r with Wire.fseed = r.Wire.fseed + 1 }) reqs in
  let want = List.map offline reqs and want_again = List.map offline again in
  let file = Filename.temp_file "serve_hits" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
  @@ fun () ->
  let answers t rs =
    let ths, results = fire t rs in
    List.iter Thread.join ths;
    results ()
  in
  Cache.clear ();
  with_server ~cache_file:file (fun t -> check_answers want (answers t reqs));
  Cache.clear ();
  with_server ~cache_file:file @@ fun t ->
  check_answers want_again (answers t again);
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Alcotest.(check int) "no solve after the restart" 0 (stats_value c "responses_misses");
  Alcotest.(check int) "every request a hit" (List.length again)
    (stats_value c "responses_hits")

(* serve_parent.cache was written by [serve --cache-file] when the
   cache still held a [validate.check] table, after
   [loadgen -n 12 --clients 1 --seed 7]: that section must be skipped,
   and the [serve.responses] one must answer the same mix unsolved *)
let test_parent_cache_file_loads () =
  let fixture =
    List.find Sys.file_exists [ "serve_parent.cache"; "test/serve_parent.cache" ]
  in
  let bytes = In_channel.with_open_bin fixture In_channel.input_all in
  let has needle =
    match Str.search_forward (Str.regexp_string needle) bytes 0 with
    | _ -> true
    | exception Not_found -> false
  in
  Alcotest.(check (pair bool bool)) "the fixture holds both sections" (true, true)
    (has "validate.check", has "serve.responses");
  let file = Filename.temp_file "serve_parent" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
  @@ fun () ->
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc bytes);
  let reqs = Loadgen.mix ~seed:7 ~n:12 () in
  let want = List.map offline reqs in
  Cache.clear ();
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.reset (); Obs.disable ()) @@ fun () ->
  Obs.reset ();
  with_server ~cache_file:file @@ fun t ->
  Alcotest.(check int) "loaded without corruption" 0 (Obs.counter "cache.load_corrupt");
  let ths, results = fire t reqs in
  List.iter Thread.join ths;
  check_answers want (results ());
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Alcotest.(check int) "no solve: every answer came from the file" 0
    (stats_value c "responses_misses")

let () =
  Alcotest.run "serve"
    [
      ( "frame",
        [
          QCheck_alcotest.to_alcotest prop_frame_roundtrip;
          QCheck_alcotest.to_alcotest prop_frame_garbage_never_raises;
          Alcotest.test_case "clean EOF" `Quick test_frame_clean_eof;
          Alcotest.test_case "truncated header" `Quick test_frame_truncated_header;
          Alcotest.test_case "truncated payload" `Quick
            test_frame_truncated_payload;
          Alcotest.test_case "oversized" `Quick test_frame_oversized;
          Alcotest.test_case "encode rejects oversized" `Quick
            test_frame_encode_rejects_oversized;
        ] );
      ( "wire",
        [
          Alcotest.test_case "request roundtrip" `Quick test_wire_request_roundtrip;
          Alcotest.test_case "solve_key ignores deadline" `Quick
            test_wire_solve_key_ignores_deadline;
          Alcotest.test_case "unread seed folds" `Quick test_wire_folds_unread_seed;
          Alcotest.test_case "request rejects" `Quick test_wire_request_rejects;
          Alcotest.test_case "response roundtrip" `Quick
            test_wire_response_roundtrip;
        ] );
      ("seed-fold", [ Alcotest.test_case "stamp (solve r) = render" `Quick test_seed_fold_bytes ]);
      ( "backoff",
        [
          Alcotest.test_case "matches Fault.backoff" `Quick
            test_backoff_matches_fault;
          Alcotest.test_case "jitter bounded + deterministic" `Quick
            test_backoff_jitter_bounds;
          Alcotest.test_case "no jitter = exp_delay" `Quick
            test_backoff_no_jitter_is_exp;
          Alcotest.test_case "validation" `Quick test_backoff_validation;
          QCheck_alcotest.to_alcotest prop_hash_unit_in_range;
        ] );
      ( "cache",
        [
          Alcotest.test_case "save is atomic" `Quick test_cache_save_atomic;
          Alcotest.test_case "corrupt load counted" `Quick
            test_cache_corrupt_load_counted;
          Alcotest.test_case "parent cache file loads" `Quick
            test_parent_cache_file_loads;
        ] );
      ( "server",
        [
          Alcotest.test_case "ok bytes = offline bytes" `Quick test_server_ok_bytes;
          Alcotest.test_case "repeat + stats" `Quick test_server_repeat_and_stats;
          Alcotest.test_case "deadline 0 times out" `Quick
            test_server_deadline_timeout;
          Alcotest.test_case "one pipe per connection" `Quick
            test_server_conn_pipe_no_leak;
          Alcotest.test_case "timeout leaves no stale wakeup" `Quick
            test_server_timeout_leaves_no_stale_wakeup;
          Alcotest.test_case "signal does not time out" `Quick
            test_server_signal_does_not_time_out;
          Alcotest.test_case "full queue sheds" `Quick test_server_sheds_when_full;
          Alcotest.test_case "malformed frame answered" `Quick
            test_server_malformed_frame;
          Alcotest.test_case "unknown workload fails" `Quick
            test_server_unknown_workload;
          Alcotest.test_case "concurrent clients" `Quick
            test_server_concurrent_clients;
          Alcotest.test_case "drain refuses new work" `Quick
            test_server_drain_refuses_new_work;
          Alcotest.test_case "snapshot restart warm" `Quick
            test_server_snapshot_restart_warm;
          Alcotest.test_case "one solve per work key" `Quick
            test_server_one_solve_per_work_key;
          Alcotest.test_case "fault seeds share one solve" `Quick
            test_server_seeds_share_one_solve;
        ] );
      ( "hit-path",
        [
          Alcotest.test_case "hit answered while solver busy" `Quick
            test_hit_while_solver_busy;
          Alcotest.test_case "no re-solve during a Par fan-out" `Quick
            test_hits_during_par_fan_out;
          Alcotest.test_case "restart answers from the memo" `Quick
            test_restart_answers_from_memo;
        ] );
    ]
