(* The serving loop.  Threading rules, which every edit must keep:

   - Only the solver thread solves, and only it touches Par or the
     per-domain Cache shards (Domain.DLS, shared by every systhread of
     the domain).
   - The response memo is one shared Cache table with its own lock.
     Connection threads look requests up in it and answer the hits;
     the solver adds each solve.  Both do so under the server mutex
     (then the memo's lock), so no key is both memoized and in flight.
     No lock is held while solving, stamping or writing a file.
   - Connection threads otherwise use only the server mutex (queue,
     counters, waiter lists), their own socket and waiter pipe (one
     per connection), Obs (one mutex-guarded store) and pure code,
     such as stamping their request's fault seed (Answer.stamp).
   - Signal handlers only flip an atomic; every blocking wait is a
     select with a short timeout, so the flag is noticed promptly. *)

type config = {
  addr : Wire.addr;
  jobs : int;
  max_queue : int;
  deadline_ms : int;
  snapshot_every : int;
  cache_file : string option;
}

let default_config addr =
  { addr; jobs = 1; max_queue = 64; deadline_ms = 0; snapshot_every = 8;
    cache_file = None }

(* One queued solve, keyed by [Wire.work_key]: [req] carries no fault
   seed, and [result] is the seed-free solve that every waiter stamps
   its own seed into, or the response that ends the request.
   [waiters] are the write ends of the pipes the connection threads
   select on.  Protected by the server mutex. *)
type entry = {
  key : string;
  req : Wire.request;
  t_enq : float;
  mutable waiters : Unix.file_descr list;
  mutable result : (Answer.solved, Wire.response) result option;
}

type counters = {
  mutable c_requests : int;
  mutable c_ok : int;
  mutable c_errors : int;
  mutable c_shed : int;
  mutable c_timeout : int;
  mutable c_coalesced : int;
}

type t = {
  cfg : config;
  bound : Wire.addr;
  lfd : Unix.file_descr;
  stop_flag : bool Atomic.t;
  mu : Mutex.t;
  queue : entry Queue.t;
  inflight : (string, entry) Hashtbl.t;
  ctrs : counters;
  wake_r : Unix.file_descr;  (* solver wakeup pipe *)
  wake_w : Unix.file_descr;
  mutable mirrored : int * int * int * int * int * int;
      (* counter values already folded into Obs (solver thread only) *)
  mutable conns : Thread.t list;
  mutable solver : Thread.t option;
  mutable acceptor : Thread.t option;
}

let address t = t.bound

(* Solves persist across restarts: this is the table the snapshot
   loop makes kill -9-proof.  Keyed by [Wire.work_key], holding
   seed-free [Answer.solved] values (schema 2; schema 1 held answer
   strings keyed by [Wire.solve_key], and [Cache.load] skips it).
   Shared, so connection threads still see it while [Par] swaps the
   solver domain's shards.  Lazy so binaries that link the library but
   never serve register nothing. *)
let response_memo : Answer.solved Cache.Memo.t Lazy.t =
  lazy
    (Cache.Memo.create ~capacity:512 ~shared:true ~name:"serve.responses"
       ~schema:"resopt-serve/2" ())

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let ignore_unix f = try f () with Unix.Unix_error _ -> ()

(* select that treats EINTR (a signal landed) as "nothing ready" *)
let select_r fds timeout =
  match Unix.select fds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let wake t = ignore_unix (fun () -> ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1))

(* ------------------------------------------------------------------ *)
(* Admission (connection threads)                                      *)
(* ------------------------------------------------------------------ *)

type admitted = Hit of Answer.solved | Entry of entry | Refused of Wire.response

(* Join an in-flight solve, else answer a run from the memo, else queue
   it.  A full queue sheds before the lookup. *)
let admit t (req : Wire.request) =
  let key = Wire.work_key req in
  locked t @@ fun () ->
  t.ctrs.c_requests <- t.ctrs.c_requests + 1;
  if Atomic.get t.stop_flag then begin
    t.ctrs.c_shed <- t.ctrs.c_shed + 1;
    Refused (Wire.Shed "shutting down")
  end
  else
    match Hashtbl.find_opt t.inflight key with
    | Some e ->
      t.ctrs.c_coalesced <- t.ctrs.c_coalesced + 1;
      Entry e
    | None ->
      if Queue.length t.queue >= t.cfg.max_queue then begin
        t.ctrs.c_shed <- t.ctrs.c_shed + 1;
        Refused
          (Wire.Shed
             (Printf.sprintf "queue full (%d pending)" (Queue.length t.queue)))
      end
      else
        match Cache.Memo.find_opt (Lazy.force response_memo) key with
        | Some solved ->
          t.ctrs.c_ok <- t.ctrs.c_ok + 1;
          Hit solved
        | None ->
          let e =
            { key; req = { req with Wire.fseed = 0 }; t_enq = Unix.gettimeofday ();
              waiters = []; result = None }
          in
          Hashtbl.replace t.inflight key e;
          Queue.add e t.queue;
          wake t;
          Entry e

(* Wait for [e] to complete, bounded by the request's deadline.  The
   waiter registers its connection's pipe; the solver writes one byte
   per waiter at completion.  On expiry the waiter unregisters and gets
   a structured Timeout — the solve itself continues and warms the
   memo.

   The pipe serves every request of its connection, so no byte may
   outlive the request it woke: a waiter that registered and then finds
   [result = Some _] reads back the one byte [finish] wrote (under the
   lock, before the result became visible); one that finds [None]
   unregisters under the same lock, so [finish] never writes to it.
   The read end is non-blocking, so a lost write cannot hang it.
   Returns the shared solve, or the response that ends the request. *)
let await t (e : entry) (r, w) deadline_ms =
  (* register-or-observe under one lock: [finish] sets [result] and
     notifies waiters under the same mutex, so either we see the result
     here (solve already done) or our pipe is registered before it
     runs.
     Registering first and checking after the select would lose the
     wakeup and block forever on requests without a deadline. *)
  let done_already =
    locked t (fun () ->
        match e.result with
        | Some _ -> true
        | None ->
          e.waiters <- w :: e.waiters;
          false)
  in
  (* a signal interrupts the select; only the deadline ends the wait *)
  let until =
    Option.map (fun d -> Unix.gettimeofday () +. (float_of_int d /. 1000.0)) deadline_ms
  in
  let rec wait () =
    let timeout =
      match until with
      | None -> -1.0 (* infinite *)
      | Some u -> Float.max 0.0 (u -. Unix.gettimeofday ())
    in
    match Unix.select [ r ] [] [] timeout with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> if timeout <> 0.0 then wait ()
  in
  if not done_already then wait ();
  locked t @@ fun () ->
  match e.result with
  | Some resp ->
    if not done_already then
      ignore_unix (fun () -> ignore (Unix.read r (Bytes.create 1) 0 1));
    resp
  | None ->
    e.waiters <- List.filter (fun fd -> fd != w) e.waiters;
    t.ctrs.c_timeout <- t.ctrs.c_timeout + 1;
    Error
      (Wire.Timeout
         (Printf.sprintf "deadline %dms expired" (Option.value deadline_ms ~default:0)))

let read_counters t =
  locked t (fun () ->
      let c = t.ctrs in
      (c.c_requests, c.c_ok, c.c_errors, c.c_shed, c.c_timeout, c.c_coalesced))

let render_stats t =
  let requests, ok, errors, shed, timeout, coalesced = read_counters t in
  let cs = Cache.stats () in
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "requests=%d" requests;
  line "ok=%d" ok;
  line "errors=%d" errors;
  line "shed=%d" shed;
  line "timeout=%d" timeout;
  line "coalesced=%d" coalesced;
  line "queue_depth=%d" (locked t (fun () -> Queue.length t.queue));
  (match Obs.histogram_percentiles "serve.latency_ms" with
  | Some (p50, p95, p99) ->
    line "latency_ms_p50=%.3f" p50;
    line "latency_ms_p95=%.3f" p95;
    line "latency_ms_p99=%.3f" p99
  | None -> ());
  line "bounds_computed=%d" (Obs.counter "bounds.computed");
  (match Obs.histogram "bounds.efficiency" with
  | Some h when h.Obs.count > 0 ->
    line "bounds_eff_mean=%.3f" (h.Obs.sum /. float_of_int h.Obs.count);
    line "bounds_eff_min=%.3f" h.Obs.min_v
  | _ -> ());
  (match Obs.gauge "bounds.last_efficiency" with
  | Some g -> line "bounds_eff_last=%.3f" g
  | None -> ());
  line "cache_hits=%d" cs.Cache.hits;
  line "cache_misses=%d" cs.Cache.misses;
  line "cache_entries=%d" cs.Cache.entries;
  line "cache_load_corrupt=%d" (Obs.counter "cache.load_corrupt");
  (* the response memo alone; a solve reaches no other table, so
     cache_* above reads the same counts *)
  let rs = Cache.Memo.stats (Lazy.force response_memo) in
  line "responses_hits=%d" rs.Cache.hits;
  line "responses_misses=%d" rs.Cache.misses;
  line "responses_entries=%d" rs.Cache.entries;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Connection threads                                                  *)
(* ------------------------------------------------------------------ *)

let handle_request t pipe payload =
  match Wire.decode_request payload with
  | Error msg -> Wire.Failed msg
  | Ok req -> (
    match req.Wire.op with
    | Wire.Ping -> Wire.Answer "pong"
    | Wire.Stats ->
      (* answered here and now: never queued, coalesced or memoized *)
      locked t (fun () -> t.ctrs.c_requests <- t.ctrs.c_requests + 1);
      let body = render_stats t in
      locked t (fun () -> t.ctrs.c_ok <- t.ctrs.c_ok + 1);
      Wire.Answer body
    | Wire.Run -> (
      let t_admit = Unix.gettimeofday () in
      let deadline =
        match req.Wire.deadline_ms with
        | Some d -> Some d
        | None -> if t.cfg.deadline_ms > 0 then Some t.cfg.deadline_ms else None
      in
      let result =
        match admit t req with
        | Refused resp -> Error resp
        | Hit solved ->
          (* a hit never waits, so no deadline applies to it *)
          Obs.observe "serve.latency_ms" ((Unix.gettimeofday () -. t_admit) *. 1000.0);
          Ok solved
        | Entry e -> await t e pipe deadline
      in
      (* the solve is shared across fault seeds; this request's own
         seed goes in here, outside the lock *)
      match result with
      | Ok solved -> Wire.Answer (Answer.stamp req solved)
      | Error resp -> resp))

let conn_loop t fd =
  let rec loop pipe =
    if Atomic.get t.stop_flag then ()
    else if select_r [ fd ] 0.25 = [] then loop pipe
    else
      match Frame.read_fd fd with
      | Error `Eof -> ()
      | Error (`Error e) ->
        (* garbage on the wire: answer with the structured error and
           drop the connection — framing cannot resync after it *)
        ignore_unix (fun () ->
            Frame.write_fd fd
              (Wire.encode_response (Wire.Failed (Frame.error_to_string e))))
      | Ok payload ->
        let resp = handle_request t pipe payload in
        let ok =
          try
            Frame.write_fd fd (Wire.encode_response resp);
            true
          with Unix.Unix_error _ -> false
        in
        if ok then loop pipe
  in
  (* a failed pipe or socket call ends this connection, never the
     server: the thread still closes its descriptors and unregisters *)
  let close fd = ignore_unix (fun () -> Unix.close fd) in
  (try
     let ((r, w) as pipe) = Unix.pipe ~cloexec:true () in
     Fun.protect
       ~finally:(fun () -> List.iter close [ r; w ])
       (fun () ->
         Unix.set_nonblock r;
         loop pipe)
   with _ -> ());
  close fd;
  let me = Thread.id (Thread.self ()) in
  locked t (fun () ->
      t.conns <- List.filter (fun th -> Thread.id th <> me) t.conns)

(* ------------------------------------------------------------------ *)
(* Solver thread                                                       *)
(* ------------------------------------------------------------------ *)

(* Mirror the mutex-guarded counters into Obs (additively, via deltas)
   so --stats-style tooling sees serve.* next to cache.*.  Solver
   thread only. *)
let mirror_counters t =
  let ((r, o, e, s, ti, co) as now) = read_counters t in
  let (r', o', e', s', ti', co') = t.mirrored in
  Obs.incr ~by:(r - r') "serve.requests";
  Obs.incr ~by:(o - o') "serve.ok";
  Obs.incr ~by:(e - e') "serve.errors";
  Obs.incr ~by:(s - s') "serve.shed";
  Obs.incr ~by:(ti - ti') "serve.timeout";
  Obs.incr ~by:(co - co') "serve.coalesced";
  t.mirrored <- now

(* Achieved-vs-bound efficiency of the workloads this server has
   solved, for the stats answer.  Solver thread only; memoized per
   (workload, m) — the bound is fault- and placement-independent here
   (reference machine, fixed embedding), so repeated solves of the
   same pair feed the bounds.* counters exactly once. *)
let eff_memo : (string * int, unit) Hashtbl.t = Hashtbl.create 16

let observe_bounds (req : Wire.request) =
  let key = (req.Wire.workload, req.Wire.m) in
  if not (Hashtbl.mem eff_memo key) then
    match Resopt.Workloads.find req.Wire.workload with
    | exception Not_found -> ()
    | w ->
      Hashtbl.add eff_memo key ();
      (try
         ignore
           (Resopt.Efficiency.of_workload ~m:req.Wire.m
              (Machine.Models.paragon ()) w
             : Resopt.Efficiency.t option)
       with _ -> ())

(* Every queued run missed the memo at admission.  Distinct misses fan
   out over the pool (Par merges each worker's per-domain cache shards
   back here at join; workers record into the shared Obs store). *)
let solve_batch t (runs : entry list) =
  (* bound every solved (workload, m) once, so stats answers carry
     efficiency next to the latency percentiles *)
  List.iter (fun e -> observe_bounds e.req) runs;
  let solved =
    let compute e = Answer.solve e.req in
    match runs with
    | _ :: _ :: _ when t.cfg.jobs > 1 ->
      Par.map (Par.Shared.get ~jobs:t.cfg.jobs) compute runs
    | _ -> List.map compute runs
  in
  let finish e res =
    let resp = Result.map_error (fun msg -> Wire.Failed msg) res in
    Obs.observe "serve.latency_ms" ((Unix.gettimeofday () -. e.t_enq) *. 1000.0);
    locked t @@ fun () ->
    (match res with
    | Ok solved ->
      t.ctrs.c_ok <- t.ctrs.c_ok + 1;
      Cache.Memo.add (Lazy.force response_memo) ~key:e.key solved
    | Error _ -> t.ctrs.c_errors <- t.ctrs.c_errors + 1);
    e.result <- Some resp;
    Hashtbl.remove t.inflight e.key;
    List.iter
      (fun fd ->
        ignore_unix (fun () -> ignore (Unix.write fd (Bytes.make 1 '.') 0 1)))
      e.waiters
  in
  List.iter2 finish runs solved

let snapshot t =
  match t.cfg.cache_file with
  | None -> ()
  | Some file -> (
    try Cache.save file
    with Sys_error _ -> () (* a failed snapshot only loses warmth *))

let solver_loop t =
  let batches = ref 0 in
  let drain_wake () =
    if select_r [ t.wake_r ] 0.0 <> [] then
      ignore_unix (fun () ->
          ignore (Unix.read t.wake_r (Bytes.create 64) 0 64))
  in
  let take_batch () =
    locked t (fun () ->
        let l = List.of_seq (Queue.to_seq t.queue) in
        Queue.clear t.queue;
        l)
  in
  let rec loop () =
    Obs.set_gauge "serve.queue_depth"
      (float_of_int (locked t (fun () -> Queue.length t.queue)));
    let batch = take_batch () in
    if batch = [] then begin
      mirror_counters t;
      if Atomic.get t.stop_flag then begin
        (* final re-drain: an entry may have been admitted between our
           drain and the flag flip.  Admission refuses once the flag is
           up (it reads the atomic under the same mutex the queue
           uses), so a queue found empty now stays empty. *)
        match take_batch () with
        | [] -> ()
        | last ->
          solve_batch t last;
          mirror_counters t
      end
      else begin
        ignore (select_r [ t.wake_r ] 0.25);
        drain_wake ();
        loop ()
      end
    end
    else begin
      drain_wake ();
      solve_batch t batch;
      mirror_counters t;
      incr batches;
      if t.cfg.snapshot_every > 0 && !batches mod t.cfg.snapshot_every = 0 then
        snapshot t;
      loop ()
    end
  in
  loop ();
  (* final snapshot: stop-and-restart must answer warm *)
  snapshot t

(* ------------------------------------------------------------------ *)
(* Accept thread, lifecycle                                            *)
(* ------------------------------------------------------------------ *)

let accept_loop t =
  let rec loop () =
    if Atomic.get t.stop_flag then ()
    else begin
      (if select_r [ t.lfd ] 0.25 <> [] then
         match Unix.accept ~cloexec:true t.lfd with
         | fd, _ ->
           (* listed under the lock its exit takes to unlist itself: a
              thread that ended first would stay listed, and [wait]
              would spin joining it *)
           locked t (fun () ->
               t.conns <- Thread.create (fun () -> conn_loop t fd) () :: t.conns)
         | exception Unix.Unix_error _ -> ());
      loop ()
    end
  in
  loop ();
  ignore_unix (fun () -> Unix.close t.lfd);
  match t.cfg.addr with
  | Wire.Unix_sock path -> (try Sys.remove path with Sys_error _ -> ())
  | Wire.Tcp _ -> ()

let bind_listen addr =
  match addr with
  | Wire.Unix_sock path ->
    (try Sys.remove path with Sys_error _ -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    (fd, addr)
  | Wire.Tcp (host, port) ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    let ip = Unix.inet_addr_of_string host in
    Unix.bind fd (Unix.ADDR_INET (ip, port));
    Unix.listen fd 64;
    let bound_port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    (fd, Wire.Tcp (host, bound_port))

let start cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Obs.set_clock Unix.gettimeofday;
  Obs.enable ();
  Cache.enable ();
  ignore (Lazy.force response_memo);
  (* load before any thread exists *)
  (match cfg.cache_file with
  | Some file -> ignore (Cache.load file : bool)
  | None -> ());
  let lfd, bound = bind_listen cfg.addr in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      cfg;
      bound;
      lfd;
      stop_flag = Atomic.make false;
      mu = Mutex.create ();
      queue = Queue.create ();
      inflight = Hashtbl.create 16;
      ctrs =
        { c_requests = 0; c_ok = 0; c_errors = 0; c_shed = 0; c_timeout = 0;
          c_coalesced = 0 };
      wake_r;
      wake_w;
      mirrored = (0, 0, 0, 0, 0, 0);
      conns = [];
      solver = None;
      acceptor = None;
    }
  in
  t.solver <- Some (Thread.create (fun () -> solver_loop t) ());
  t.acceptor <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let stop t =
  Atomic.set t.stop_flag true;
  wake t

let install_signal_handlers t =
  let h = Sys.Signal_handle (fun _ -> Atomic.set t.stop_flag true) in
  Sys.set_signal Sys.sigterm h;
  Sys.set_signal Sys.sigint h

let wait t =
  Option.iter Thread.join t.acceptor;
  let rec drain_conns () =
    match locked t (fun () -> t.conns) with
    | [] -> ()
    | th :: _ ->
      Thread.join th;
      drain_conns ()
  in
  drain_conns ();
  Option.iter Thread.join t.solver;
  ignore_unix (fun () -> Unix.close t.wake_r);
  ignore_unix (fun () -> Unix.close t.wake_w)
