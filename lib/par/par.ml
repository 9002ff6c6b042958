(* Domain pool + deterministic fan-out.  Everything here is stdlib:
   Domain / Mutex / Condition / Atomic arrived with OCaml 5.

   The execution model is generation-based: the coordinator publishes
   one job (a [int -> unit] run once per slot), bumps a generation
   counter and broadcasts; each worker runs the job for that
   generation exactly once, then decrements [active] and signals the
   coordinator when the last one drains.  The coordinator itself
   participates as slot 0, so a pool of [jobs] uses [jobs] domains
   total and a pool of 1 never leaves the calling domain. *)

module Pool = struct
  type t = {
    size : int; (* jobs as requested *)
    width : int; (* domains actually used, <= size *)
    mutex : Mutex.t;
    work_ready : Condition.t;
    work_done : Condition.t;
    mutable job : (int -> unit) option;
    mutable generation : int;
    mutable active : int; (* workers still inside the current job *)
    mutable stop : bool;
    mutable domains : unit Domain.t list; (* spawned on first use *)
  }

  let create ?jobs ?(oversubscribe = false) () =
    let size =
      match jobs with
      | Some j -> max 1 j
      | None -> max 1 (Domain.recommended_domain_count ())
    in
    (* Running more domains than cores never helps here — the chunks
       are CPU-bound and OCaml 5 minor collections stop every domain,
       so time-sliced domains multiply GC pauses instead of hiding
       latency (measured: the 0.355x jobs-4 sweep of BENCH_par.json
       on a 1-core container).  Cap the execution width at the core
       count; [oversubscribe] lifts the cap for tests that want real
       multi-domain scheduling regardless of the machine. *)
    let width =
      if oversubscribe then size
      else min size (max 1 (Domain.recommended_domain_count ()))
    in
    {
      size;
      width;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      generation = 0;
      active = 0;
      stop = false;
      domains = [];
    }

  let jobs t = t.size
  let width t = t.width

  let worker_loop t slot =
    let last = ref 0 in
    let rec loop () =
      Mutex.lock t.mutex;
      while (not t.stop) && t.generation = !last do
        Condition.wait t.work_ready t.mutex
      done;
      if t.stop then Mutex.unlock t.mutex
      else begin
        let gen = t.generation and f = Option.get t.job in
        Mutex.unlock t.mutex;
        last := gen;
        (* job bodies catch task exceptions themselves; a stray raise
           here must not kill the domain mid-pool *)
        (try f slot with _ -> ());
        Mutex.lock t.mutex;
        t.active <- t.active - 1;
        if t.active = 0 then Condition.signal t.work_done;
        Mutex.unlock t.mutex;
        loop ()
      end
    in
    loop ()

  let ensure_spawned t =
    if t.domains = [] && t.width > 1 then
      t.domains <-
        List.init (t.width - 1) (fun i ->
            Obs.Profile.event "spawn" (fun () ->
                Domain.spawn (fun () -> worker_loop t (i + 1))))

  (* Run [body slot] once on every slot (0 = the calling domain) and
     return when all slots have finished. *)
  let run t body =
    if t.stop then invalid_arg "Par.Pool: pool used after shutdown";
    if t.width = 1 then body 0
    else begin
      ensure_spawned t;
      Mutex.lock t.mutex;
      t.job <- Some body;
      t.generation <- t.generation + 1;
      t.active <- t.width - 1;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mutex;
      body 0;
      Mutex.lock t.mutex;
      while t.active > 0 do
        Condition.wait t.work_done t.mutex
      done;
      t.job <- None;
      Mutex.unlock t.mutex
    end

  let shutdown t =
    if not t.stop then begin
      Mutex.lock t.mutex;
      t.stop <- true;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mutex;
      if t.domains <> [] then
        Obs.Profile.event "teardown" (fun () ->
            List.iter Domain.join t.domains);
      t.domains <- []
    end

  let with_pool ?jobs ?oversubscribe f =
    let t = create ?jobs ?oversubscribe () in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
end

(* ------------------------------------------------------------------ *)
(* Shared pools                                                        *)
(* ------------------------------------------------------------------ *)

(* Spawning costs real time relative to a sweep row, and the profiler
   showed pools being created and torn down once per call site.  This
   registry keeps one pool alive per jobs count for the life of the
   process; everything long-running (CLI subcommands, Sweep rows,
   benches) should go through [get] instead of [Pool.with_pool]. *)
module Shared = struct
  let pools : (int, Pool.t) Hashtbl.t = Hashtbl.create 4
  let lock = Mutex.create ()
  let registered = ref false

  let shutdown_all () =
    Mutex.lock lock;
    let ps = Hashtbl.fold (fun _ p acc -> p :: acc) pools [] in
    Hashtbl.reset pools;
    Mutex.unlock lock;
    List.iter Pool.shutdown ps

  let get ~jobs =
    let jobs = max 1 jobs in
    Mutex.lock lock;
    let p =
      match Hashtbl.find_opt pools jobs with
      | Some p -> p
      | None ->
        let p = Pool.create ~jobs () in
        Hashtbl.replace pools jobs p;
        if not !registered then begin
          registered := true;
          at_exit shutdown_all
        end;
        p
    in
    Mutex.unlock lock;
    p
end

(* ------------------------------------------------------------------ *)
(* Deterministic task fan-out                                          *)
(* ------------------------------------------------------------------ *)

(* Run [n] independent tasks.  [task i] must write any result into
   slot [i] of a caller-owned array, which makes the output layout a
   function of the input alone.  Indices are handed out in chunks
   through an atomic counter for load balance; all tasks are attempted
   even after a failure, and the failure with the smallest input index
   wins, so which exception escapes does not depend on scheduling. *)
let run_tasks pool n task =
  if n = 0 then ()
  else if Pool.jobs pool = 1 then begin
    Obs.Profile.note_pool ~jobs:1 ~width:1;
    for i = 0 to n - 1 do
      Obs.Profile.task "chunk" ~index:i ~size:1 (fun () -> task i)
    done
  end
  else begin
    let slots = Pool.width pool in
    Obs.Profile.note_pool ~jobs:(Pool.jobs pool) ~width:slots;
    let chunk = max 1 (n / (slots * 8)) in
    let next = Atomic.make 0 in
    let err : (int * exn * Printexc.raw_backtrace) option Atomic.t =
      Atomic.make None
    in
    let record i e bt =
      let rec retry () =
        let prev = Atomic.get err in
        match prev with
        | Some (j, _, _) when j <= i -> ()
        | _ ->
          if not (Atomic.compare_and_set err prev (Some (i, e, bt))) then
            retry ()
      in
      retry ()
    in
    let rec drain () =
      let start = Atomic.fetch_and_add next chunk in
      if start < n then begin
        let stop = min n (start + chunk) in
        Obs.Profile.task "chunk" ~index:start ~size:(stop - start) (fun () ->
            for i = start to stop - 1 do
              try task i with e -> record i e (Printexc.get_raw_backtrace ())
            done);
        drain ()
      end
    in
    (* Obs, Telemetry and Profile record into shared stores; a slot
       only needs its worker id set. *)
    Pool.run pool (fun slot -> Obs.Profile.with_worker slot drain);
    match Atomic.get err with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* List combinators                                                    *)
(* ------------------------------------------------------------------ *)

let map pool f l =
  let arr = Array.of_list l in
  let out = Array.make (Array.length arr) None in
  run_tasks pool (Array.length arr) (fun i -> out.(i) <- Some (f arr.(i)));
  Array.fold_right (fun v acc -> Option.get v :: acc) out []

let concat_map pool f l = List.concat (map pool f l)
