(* Scheduler profiler.  Like Obs and Telemetry, it records into one
   process-wide, mutex-guarded store: tasks complete on worker domains
   at chunk granularity (tens to hundreds per run), so one lock push
   per chunk is noise, and every record carries its worker slot, so
   nothing is merged and nothing is lost when a pool is reused across
   calls.  The hot-path contract matches Obs: every entry point first
   tests [enabled_flag], so a profiler-off build pays one boolean test
   and output is byte-identical. *)

let now_us = Ambient.now_us

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type task_record = {
  t_worker : int;
  t_stack : string list;
  t_index : int;
  t_size : int;
  t_start_us : float;
  t_dur_us : float;
  t_minor : int;
  t_major : int;
  t_promoted : float;
}

type event_record = {
  e_kind : string;
  e_worker : int;
  e_start_us : float;
  e_dur_us : float;
}

let enabled_flag = ref false
let lock = Mutex.create ()
let task_log : task_record list ref = ref [] (* reverse completion order *)
let event_log : event_record list ref = ref []
let pool_ref : (int * int) option ref = ref None

(* Estimated cost of one minor collection on the installed clock,
   calibrated once on the first [enable] (0.0 under a frozen fake
   clock).  Feeds only the diagnosis GC bucket. *)
let minor_pause_us = ref (-1.0)

let calibrate () =
  if !minor_pause_us < 0.0 then begin
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = now_us () in
      Gc.minor ();
      let d = now_us () -. t0 in
      if d < !best then best := d
    done;
    minor_pause_us := if Float.is_finite !best && !best > 0.0 then !best else 0.0
  end

let enable () =
  calibrate ();
  enabled_flag := true

let disable () = enabled_flag := false
let enabled () = !enabled_flag

let reset () =
  Mutex.lock lock;
  task_log := [];
  event_log := [];
  pool_ref := None;
  Mutex.unlock lock;
  let ctx = Ambient.get () in
  ctx.worker <- None;
  ctx.stack <- []

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let note_pool ~jobs ~width =
  if !enabled_flag then begin
    Mutex.lock lock;
    pool_ref := Some (jobs, width);
    Mutex.unlock lock
  end

let with_worker = Ambient.with_worker

(* sequential code profiles as slot 0 *)
let slot (ctx : Ambient.t) = Option.value ~default:0 ctx.worker

let task ?(index = -1) ?(size = 1) label f =
  if not !enabled_flag then f ()
  else begin
    let ctx = Ambient.get () in
    let saved = ctx.stack in
    ctx.stack <- label :: saved;
    let g0 = Gc.quick_stat () in
    let t0 = now_us () in
    let finish () =
      let t1 = now_us () in
      let g1 = Gc.quick_stat () in
      ctx.stack <- saved;
      let r =
        {
          t_worker = slot ctx;
          t_stack = List.rev (label :: saved);
          t_index = index;
          t_size = size;
          t_start_us = t0;
          t_dur_us = t1 -. t0;
          t_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
          t_major = g1.Gc.major_collections - g0.Gc.major_collections;
          t_promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
        }
      in
      Mutex.lock lock;
      task_log := r :: !task_log;
      Mutex.unlock lock
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let event kind f =
  if not !enabled_flag then f ()
  else begin
    let ctx = Ambient.get () in
    let t0 = now_us () in
    let finish () =
      let t1 = now_us () in
      let r =
        { e_kind = kind; e_worker = slot ctx; e_start_us = t0; e_dur_us = t1 -. t0 }
      in
      Mutex.lock lock;
      event_log := r :: !event_log;
      Mutex.unlock lock
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let tasks () =
  Mutex.lock lock;
  let l = List.rev !task_log in
  Mutex.unlock lock;
  l

let events () =
  Mutex.lock lock;
  let l = List.rev !event_log in
  Mutex.unlock lock;
  l

let pool_shape () =
  Mutex.lock lock;
  let p = !pool_ref in
  Mutex.unlock lock;
  p

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let top_level ts = List.filter (fun t -> List.length t.t_stack = 1) ts

type worker_stat = {
  ws_worker : int;
  ws_tasks : int;
  ws_items : int;
  ws_busy_us : float;
  ws_minor : int;
  ws_major : int;
  ws_promoted : float;
}

let worker_stats () =
  let tbl : (int, worker_stat) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun t ->
      let s =
        Option.value
          ~default:
            {
              ws_worker = t.t_worker;
              ws_tasks = 0;
              ws_items = 0;
              ws_busy_us = 0.0;
              ws_minor = 0;
              ws_major = 0;
              ws_promoted = 0.0;
            }
          (Hashtbl.find_opt tbl t.t_worker)
      in
      Hashtbl.replace tbl t.t_worker
        {
          s with
          ws_tasks = s.ws_tasks + 1;
          ws_items = s.ws_items + t.t_size;
          ws_busy_us = s.ws_busy_us +. t.t_dur_us;
          ws_minor = s.ws_minor + t.t_minor;
          ws_major = s.ws_major + t.t_major;
          ws_promoted = s.ws_promoted +. t.t_promoted;
        })
    (top_level (tasks ()));
  List.sort compare (Hashtbl.fold (fun _ s acc -> s :: acc) tbl [])

type diagnosis = {
  d_jobs : int;
  d_width : int;
  d_wall_us : float;
  d_budget_us : float;
  d_work_us : float;
  d_gc_us : float;
  d_spawn_us : float;
  d_idle_us : float;
  d_minor : int;
  d_major : int;
  d_promoted : float;
  d_attributed : float;
  d_recommended : int;
}

let window ts es =
  let fold_lo acc s = if acc < 0.0 then s else Float.min acc s in
  let lo, hi =
    List.fold_left
      (fun (lo, hi) (t : task_record) ->
        (fold_lo lo t.t_start_us, Float.max hi (t.t_start_us +. t.t_dur_us)))
      (List.fold_left
         (fun (lo, hi) (e : event_record) ->
           (fold_lo lo e.e_start_us, Float.max hi (e.e_start_us +. e.e_dur_us)))
         (-1.0, 0.0) es)
      ts
  in
  if lo < 0.0 then (0.0, 0.0) else (lo, hi)

(* Measured cost model: running [items] items of mean cost [w] on [d]
   domains costs one spawn per extra domain and the work divided over
   at most [cores] truly concurrent domains.
   Oversubscribing past [cores] therefore only ever adds overhead —
   which is exactly what the committed 0.355x BENCH_par.json measured
   on a 1-core container. *)
let recommend ~cores ~items ~work_us ~spawn_us =
  let cores = max 1 cores in
  let w = if items > 0 then work_us /. float_of_int items else 0.0 in
  let pred d =
    (spawn_us *. float_of_int (d - 1))
    +. (float_of_int items *. w /. float_of_int (min d cores))
  in
  let best = ref 1 and best_cost = ref (pred 1) in
  for d = 2 to max 8 cores do
    let c = pred d in
    if c < !best_cost then begin
      best := d;
      best_cost := c
    end
  done;
  !best

let diagnose ?cores () =
  let ts = tasks () and es = events () in
  if ts = [] && es = [] then None
  else begin
    let cores =
      match cores with Some c -> max 1 c | None -> Domain.recommended_domain_count ()
    in
    let tops = top_level ts in
    let stats = worker_stats () in
    let jobs, width =
      match pool_shape () with
      | Some (j, w) -> (j, w)
      | None ->
        let w =
          1 + List.fold_left (fun acc s -> max acc s.ws_worker) 0 stats
        in
        (w, w)
    in
    let lo, hi = window ts es in
    let wall = hi -. lo in
    let budget = wall *. float_of_int width in
    let busy = List.fold_left (fun acc s -> acc +. s.ws_busy_us) 0.0 stats in
    let minor = List.fold_left (fun acc s -> acc + s.ws_minor) 0 stats in
    let major = List.fold_left (fun acc s -> acc + s.ws_major) 0 stats in
    let promoted = List.fold_left (fun acc s -> acc +. s.ws_promoted) 0.0 stats in
    let pause = Float.max 0.0 !minor_pause_us in
    let gc =
      Float.min busy
        ((float_of_int minor *. pause) +. (float_of_int major *. 10.0 *. pause))
    in
    let work = busy -. gc in
    let sum_events p =
      List.fold_left
        (fun acc e -> if p e.e_kind then acc +. e.e_dur_us else acc)
        0.0 es
    in
    let spawn = sum_events (fun k -> k = "spawn" || k = "teardown") in
    let covered = work +. gc +. spawn in
    let idle = Float.max 0.0 (budget -. covered) in
    let attributed =
      if budget > 0.0 then Float.min 1.0 ((covered +. idle) /. budget) else 1.0
    in
    let items = List.fold_left (fun acc t -> acc + t.t_size) 0 tops in
    let spawn_events =
      List.length (List.filter (fun e -> e.e_kind = "spawn") es)
    in
    let spawn_per = if spawn_events > 0 then spawn /. float_of_int spawn_events else 0.0 in
    let recommended = recommend ~cores ~items ~work_us:work ~spawn_us:spawn_per in
    Some
      {
        d_jobs = jobs;
        d_width = width;
        d_wall_us = wall;
        d_budget_us = budget;
        d_work_us = work;
        d_gc_us = gc;
        d_spawn_us = spawn;
        d_idle_us = idle;
        d_minor = minor;
        d_major = major;
        d_promoted = promoted;
        d_attributed = attributed;
        d_recommended = recommended;
      }
  end

(* ------------------------------------------------------------------ *)
(* Renderers                                                           *)
(* ------------------------------------------------------------------ *)

let ms us = us /. 1e3

let timeline_cols = 48

(* Gantt-style row: each column covers wall/cols; '#' when the worker
   was busy for at least half of it, '+' when busy at all, '.' idle. *)
let timeline_row tops ~lo ~wall worker =
  let cover = Array.make timeline_cols 0.0 in
  let col_w = wall /. float_of_int timeline_cols in
  if col_w > 0.0 then
    List.iter
      (fun t ->
        if t.t_worker = worker then begin
          let t0 = t.t_start_us -. lo and t1 = t.t_start_us +. t.t_dur_us -. lo in
          let c0 = max 0 (int_of_float (t0 /. col_w)) in
          let c1 = min (timeline_cols - 1) (int_of_float (t1 /. col_w)) in
          for c = c0 to c1 do
            let b0 = float_of_int c *. col_w and b1 = float_of_int (c + 1) *. col_w in
            let o = Float.min b1 t1 -. Float.max b0 t0 in
            if o > 0.0 then cover.(c) <- cover.(c) +. o
          done
        end)
      tops;
  String.init timeline_cols (fun c ->
      if col_w <= 0.0 || cover.(c) <= 0.0 then '.'
      else if cover.(c) >= 0.5 *. col_w then '#'
      else '+')

let utilization_report () =
  match diagnose () with
  | None -> ""
  | Some d ->
    let buf = Buffer.create 2048 in
    let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let ts = tasks () in
    let tops = top_level ts in
    let stats = worker_stats () in
    let lo, _hi = window ts (events ()) in
    pr "parallel profile: jobs %d (width %d), wall %.3f ms, %d tasks / %d items\n"
      d.d_jobs d.d_width (ms d.d_wall_us) (List.length tops)
      (List.fold_left (fun acc t -> acc + t.t_size) 0 tops);
    pr "worker %10s %6s %6s %6s %7s %6s %10s\n" "busy ms" "busy%" "tasks" "items"
      "minor" "major" "promoted";
    List.iter
      (fun s ->
        pr "%6d %10.3f %5.1f%% %6d %6d %7d %6d %10.0f\n" s.ws_worker
          (ms s.ws_busy_us)
          (if d.d_wall_us > 0.0 then 100.0 *. s.ws_busy_us /. d.d_wall_us else 0.0)
          s.ws_tasks s.ws_items s.ws_minor s.ws_major s.ws_promoted)
      stats;
    pr "timeline ('#' busy >= 50%% of the column, '+' busy, '.' idle):\n";
    for w = 0 to d.d_width - 1 do
      pr "  w%-2d |%s|\n" w (timeline_row tops ~lo ~wall:d.d_wall_us w)
    done;
    (match tops with
    | [] -> ()
    | _ ->
      let durs = Array.of_list (List.map (fun t -> t.t_dur_us) tops) in
      let n = Array.length durs in
      let mean = Array.fold_left ( +. ) 0.0 durs /. float_of_int n in
      pr
        "task granularity: count %d, mean %.3f ms, p50 %.3f / p95 %.3f / p99 \
         %.3f ms\n"
        n (ms mean)
        (ms (Telemetry.percentile durs 50.0))
        (ms (Telemetry.percentile durs 95.0))
        (ms (Telemetry.percentile durs 99.0)));
    let es = events () in
    let lifecycle kind =
      let matching = List.filter (fun e -> e.e_kind = kind) es in
      ( List.length matching,
        List.fold_left (fun acc e -> acc +. e.e_dur_us) 0.0 matching )
    in
    let ns, ds = lifecycle "spawn" in
    let nt, dt = lifecycle "teardown" in
    pr "lifecycle: %d spawns %.3f ms, %d teardowns %.3f ms\n" ns (ms ds) nt (ms dt);
    pr "diagnosis (budget %d x %.3f ms = %.3f ms):\n" d.d_width (ms d.d_wall_us)
      (ms d.d_budget_us);
    let bucket name v =
      pr "  %-6s %5.1f%% %12.3f ms\n" name
        (if d.d_budget_us > 0.0 then 100.0 *. v /. d.d_budget_us else 0.0)
        (ms v)
    in
    bucket "work" d.d_work_us;
    bucket "gc" d.d_gc_us;
    bucket "spawn" d.d_spawn_us;
    bucket "idle" d.d_idle_us;
    pr "  gc pressure: %d minor + %d major collections, %.0f promoted words\n"
      d.d_minor d.d_major d.d_promoted;
    pr "  attributed: %.1f%% of the budget\n" (100.0 *. d.d_attributed);
    pr "  recommended domains: %d\n" d.d_recommended;
    Buffer.contents buf

let collapsed () =
  let inc : (string list, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun t ->
      let path = Printf.sprintf "worker%d" t.t_worker :: t.t_stack in
      Hashtbl.replace inc path
        (t.t_dur_us +. Option.value ~default:0.0 (Hashtbl.find_opt inc path)))
    (tasks ());
  let child_sum : (string list, float) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun path v ->
      match List.rev path with
      | _ :: (_ :: _ as rparent) ->
        let parent = List.rev rparent in
        Hashtbl.replace child_sum parent
          (v +. Option.value ~default:0.0 (Hashtbl.find_opt child_sum parent))
      | _ -> ())
    inc;
  let lines =
    Hashtbl.fold
      (fun path v acc ->
        let self =
          Float.max 0.0
            (v -. Option.value ~default:0.0 (Hashtbl.find_opt child_sum path))
        in
        (String.concat ";" path, self) :: acc)
      inc []
  in
  String.concat ""
    (List.map
       (fun (k, v) -> Printf.sprintf "%s %.0f\n" k v)
       (List.sort compare lines))

let chrome_events () =
  let task_event t =
    Printf.sprintf
      "{\"name\":%s,\"cat\":\"profile\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":3,\"tid\":%d,\"args\":{\"stack\":%s,\"index\":%d,\"size\":%d,\"minor\":%d,\"major\":%d,\"promoted\":%s}}"
      (Json.str
         (match List.rev t.t_stack with top :: _ -> top | [] -> "task"))
      (Json.float t.t_start_us) (Json.float t.t_dur_us) t.t_worker
      (Json.str (String.concat ";" t.t_stack))
      t.t_index t.t_size t.t_minor t.t_major
      (Json.float t.t_promoted)
  in
  let lifecycle_event e =
    Printf.sprintf
      "{\"name\":%s,\"cat\":\"profile.lifecycle\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":3,\"tid\":%d,\"args\":{}}"
      (Json.str e.e_kind) (Json.float e.e_start_us) (Json.float e.e_dur_us)
      e.e_worker
  in
  List.map task_event (tasks ()) @ List.map lifecycle_event (events ())
