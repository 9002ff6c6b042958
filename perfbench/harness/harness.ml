(* Workload runner of the benchmark.

   Runs one workload's fixed amount of work against the repository's
   public functions and prints one JSON object of raw measurements on
   stdout: per-op latencies, wall and CPU time, peak RSS, the priced
   rows, errors with their reasons and the per-layer counters.
   perfbench/run.py turns these into the benchmark's metrics.

   With [--trace 1] the cell workloads trace each cell in every other
   pass and sweep-warm every other sweep, so the traced and untraced
   ops of one run give the tracing overhead; serve-closed traces only
   its local oracle.  The benchmark's own spans wrap each call into a
   layer's public function, nothing inside the library is
   instrumented.  Spans stay in memory and are written to [--spans] at
   exit. *)

open Resopt

let now = Unix.gettimeofday

(* ---- arguments ---- *)

let workload = ref ""
let seed = ref 0
let units = ref 1
let corpus = ref 1000
let trace = ref false
let spans_file = ref ""
let server_pid = ref 0
let socket = ref ""
let clk_tck = ref 100
let ping_socket = ref ""

let parse_args () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--units", Arg.Set_int units, "N passes, sweeps or requests");
      ("--corpus", Arg.Set_int corpus, "N generated nests (generated-cells)");
      ("--trace", Arg.Int (fun n -> trace := n <> 0), "0|1 traced run");
      ("--spans", Arg.Set_string spans_file, "FILE where spans are written");
      ("--server-pid", Arg.Set_int server_pid, "PID server process");
      ("--socket", Arg.Set_string socket, "PATH server socket");
      ("--clk-tck", Arg.Set_int clk_tck, "N clock ticks per second");
      ( "--ping",
        Arg.Set_string ping_socket,
        "PATH only ask the server at PATH for a ping; exit 0 when it answers ok" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness --workload NAME --seed N --units N [options]"

(* ---- spans ---- *)

(* One closed span.  Ids are taken when a span opens, so a child can
   name its parent; spans are kept in closing order. *)
type span = {
  id : int;
  parent : int;
  op : int;
  name : string;
  t0 : float;
  t1 : float;
}

let spans : span list ref = ref []
let next_id = ref 0
let spans_lock = Mutex.create ()

(* the open span and the op of the calling thread's traced work; only
   the cell workloads nest spans, and they run on one thread *)
let cur_parent = ref (-1)
let cur_op = ref (-1)
let tracing = ref false

let fresh_id () =
  Mutex.lock spans_lock;
  let id = !next_id in
  incr next_id;
  Mutex.unlock spans_lock;
  id

let push s =
  Mutex.lock spans_lock;
  spans := s :: !spans;
  Mutex.unlock spans_lock

let span name f =
  if not !tracing then f ()
  else begin
    let id = fresh_id () and parent = !cur_parent and op = !cur_op in
    cur_parent := id;
    let t0 = now () in
    let finish () =
      push { id; parent; op; name; t0; t1 = now () };
      cur_parent := parent
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let write_spans () =
  if !spans_file <> "" then begin
    let oc = open_out !spans_file in
    List.iter
      (fun s ->
        Printf.fprintf oc "[%d,%d,%d,\"%s\",%.9f,%.9f]\n" s.id s.parent s.op
          s.name s.t0 s.t1)
      (List.rev !spans);
    close_out oc
  end

(* ---- measurements of a process ---- *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_lines path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  go []

(* VmHWM of a process, in kB *)
let peak_rss_kb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  List.fold_left
    (fun acc l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] -> (
        match String.split_on_char ' ' (String.trim v) with
        | n :: _ -> float_of_string n
        | [] -> acc)
      | _ -> acc)
    0.0 (read_lines path)

(* user+sys CPU seconds of another process, from /proc/PID/stat *)
let proc_cpu_s pid =
  let s = String.concat " " (read_lines (Printf.sprintf "/proc/%d/stat" pid)) in
  let after = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' after) in
  (* fields.(0) is field 3 (state): utime is field 14, stime 15 *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. float_of_int !clk_tck

(* ---- machine speed ----

   The machine's speed moves by more than the changes the benchmark must
   show (README.md), so the measured work is cut into segments of about
   [segment_s], and before and after each one a fixed calibration
   kernel runs.  The kernel uses none of the repository's code; run.py
   scales each segment by the kernel's durations around it. *)

let kernel_table = Hashtbl.create 1024

let () =
  for i = 0 to 1023 do
    Hashtbl.replace kernel_table i [ i; i * 3; i * 7 ]
  done

(* about half a millisecond of hashing, list traversal and short-lived
   allocation on the reference machine *)
let kernel () =
  let acc = ref 0 in
  for i = 0 to 6_000 do
    let l = List.rev_append (Hashtbl.find kernel_table (i * 7919 land 1023)) [ i ] in
    acc := ((!acc * 31) + List.fold_left ( + ) 0 l) land 0xFFFFFF
  done;
  !acc

(* (midpoint, seconds) of every calibration; (start, end, CPU seconds)
   of every segment of measured work *)
let calibrations = ref []
let segments = ref []
let segment_s = 0.1
let seg_start = ref 0.0
let seg_cpu = ref 0.0

(* the fastest of three kernel runs, so an interrupt does not count:
   (midpoint, seconds) *)
let time_kernel () =
  let best = ref infinity and t_mid = ref 0.0 in
  for _ = 1 to 3 do
    let t0 = now () in
    ignore (Sys.opaque_identity (kernel ()));
    let t1 = now () in
    if t1 -. t0 < !best then begin
      best := t1 -. t0;
      t_mid := (t0 +. t1) /. 2.0
    end
  done;
  (!t_mid, !best)

(* The workloads that keep both cores busy (sweep-warm, serve-closed)
   calibrate on both at once and take the mean of the two. *)
let calibrate_both_cores = ref false

let calibrate () =
  let c =
    if not !calibrate_both_cores then time_kernel ()
    else begin
      let other = Domain.spawn time_kernel in
      let m1, d1 = time_kernel () in
      let m2, d2 = Domain.join other in
      ((m1 +. m2) /. 2.0, (d1 +. d2) /. 2.0)
    end
  in
  calibrations := c :: !calibrations

let open_segment cpu =
  calibrate ();
  seg_cpu := cpu ();
  seg_start := now ()

let close_segment cpu =
  let t1 = now () in
  segments := (!seg_start, t1, cpu () -. !seg_cpu) :: !segments

(* between two ops: start a new segment once the current one is long
   enough *)
let next_segment cpu =
  if now () -. !seg_start >= segment_s then begin
    close_segment cpu;
    open_segment cpu
  end

let finish_segments cpu =
  close_segment cpu;
  calibrate ()

(* ---- results ---- *)

(* Failures by kind (exception, invalid_row, nondeterministic,
   bad_response), the ops they hit (set-up and pricing failures use
   negative op ids) and the first reasons. *)
let kinds : (string * int) list ref = ref []
let failed_ops = Hashtbl.create 16
let reasons = ref []
let errors_lock = Mutex.create ()

let error ~kind ~op fmt =
  Printf.ksprintf
    (fun s ->
      Mutex.lock errors_lock;
      kinds := (kind, 1 + Option.value ~default:0 (List.assoc_opt kind !kinds))
               :: List.remove_assoc kind !kinds;
      Hashtbl.replace failed_ops op ();
      if List.length !reasons < 20 then reasons := s :: !reasons;
      Mutex.unlock errors_lock)
    fmt

(* (optimized, baseline) per priced row *)
let priced : (float * float) list ref = ref []
let counters : (string * float) list ref = ref []
let count name v = counters := (name, v) :: List.remove_assoc name !counters

let bump name by =
  count name (by +. Option.value ~default:0.0 (List.assoc_opt name !counters))

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = Printf.sprintf "%.17g" f
let json_list f l = "[" ^ String.concat "," (List.map f l) ^ "]"

let json_obj f l =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ f v) l) ^ "}"

type run = {
  setup : (float * float) list;
  wall_s : float;
  cpu_s : float;
  rss_kb : float;
  lat_ms : float array;
  op_t : float array;
  traced : bool array;
  inputs : (string * int) list;
}

let print_result r =
  print_endline
    (json_obj Fun.id
       [
         ("inputs", json_obj string_of_int r.inputs);
         ( "setup",
           json_list (fun (a, b) -> Printf.sprintf "[%s,%s]" (json_float a) (json_float b)) r.setup );
         ("wall_s", json_float r.wall_s);
         ("cpu_s", json_float r.cpu_s);
         ("peak_rss_kb", json_float r.rss_kb);
         ("lat_ms", json_list json_float (Array.to_list r.lat_ms));
         ("op_t", json_list json_float (Array.to_list r.op_t));
         ( "calibrations",
           json_list (fun (t, d) -> Printf.sprintf "[%s,%s]" (json_float t) (json_float d))
             (List.rev !calibrations) );
         ( "segments",
           json_list
             (fun (a, b, c) -> Printf.sprintf "[%s,%s,%s]" (json_float a) (json_float b) (json_float c))
             (List.rev !segments) );
         ("traced", json_list (fun b -> if b then "1" else "0") (Array.to_list r.traced));
         ( "rows",
           json_list
             (fun (o, b) -> Printf.sprintf "[%s,%s]" (json_float o) (json_float b))
             (List.rev !priced) );
         ("failed_ops", string_of_int (Hashtbl.length failed_ops));
         ("errors", json_obj string_of_int !kinds);
         ("reasons", json_list json_string (List.rev !reasons));
         ("counters", json_obj json_float (List.rev !counters));
       ])

(* ---- the cell workloads ---- *)

let greedy = Mapping.spec Mapping.Greedy

let models () =
  [ Machine.Models.cm5 (); Machine.Models.paragon (); Machine.Models.t3d () ]

let sweep_cell (w : Workloads.t) m =
  Sweep.run ~workloads:[ w ] ~ms:[ m ] ~cache:false ~mapping:greedy ~bounds:true ()

(* The same cell as [sweep_cell], call for call, with a span around
   every call into a layer.  Its rows must equal [sweep_cell]'s, which
   the cell workloads check on every traced op. *)
let traced_cell (w : Workloads.t) m =
  Cache.scoped ~enable:false @@ fun () ->
  span "cell" @@ fun () ->
  let schedule = w.Workloads.schedule and nest = w.Workloads.nest in
  match
    let base = span "feautrier" (fun () -> Feautrier.run ~m ~schedule nest) in
    let opt = span "pipeline" (fun () -> Pipeline.run ~m ~schedule nest) in
    (opt, base)
  with
  | exception _ -> []
  | opt, base ->
    let non_local = Pipeline.non_local opt in
    let violations = span "validate" (fun () -> Validate.check opt) in
    bump "validate.violations" (float_of_int (List.length violations));
    List.map
      (fun model ->
        let price ?mapping plan = (Cost.of_plan ?mapping model plan).Cost.total in
        let optimized, baseline =
          span "cost" (fun () -> (price opt.Pipeline.plan, price base.Feautrier.plan))
        in
        bump "cost.calls" 2.0;
        let mapped = span "mapping" (fun () -> price ~mapping:greedy opt.Pipeline.plan) in
        let eff =
          span "bounds" (fun () ->
              Option.map
                (fun e -> e.Efficiency.time.Bounds.efficiency)
                (Efficiency.of_plan ~mapping:greedy model opt.Pipeline.plan))
        in
        {
          Sweep.workload = w.Workloads.name;
          m;
          model = model.Machine.Models.name;
          optimized;
          baseline;
          non_local;
          validated = violations = [];
          time_ms = 0.0;
          cost_ms = 0.0;
          resilience = [];
          map_gain = Some (if mapped > 0.0 then optimized /. mapped else 1.0);
          eff;
        })
      (models ())

(* Alignment and classification run inside Pipeline.run; in a traced
   run they are timed once more on their own, outside the cell. *)
let probe_layers (w : Workloads.t) m =
  match span "alignment" (fun () -> Alignment.Alloc.run ~m w.Workloads.nest) with
  | exception _ -> ()
  | alloc -> ignore (span "commplan" (fun () -> Commplan.build alloc w.Workloads.schedule))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Set-up builds the cells and, for the curated ones, runs one untimed
   warm-up pass: the timed passes repeat the same cells, and the first
   pass also pays for lazy initialisation and heap growth. *)
let curated_cells () =
  let cells =
    Array.of_list
      (List.concat_map (fun w -> List.map (fun m -> (w, m)) [ 1; 2; 3 ]) (Workloads.all ()))
  in
  Array.iter
    (fun ((w : Workloads.t), m) -> try ignore (sweep_cell w m : Sweep.row list) with _ -> ())
    cells;
  shuffle (Random.State.make [| !seed |]) cells

(* Gennest.generate_many draws nest i from seed + i: spacing the corpus
   seeds keeps the corpora of nearby benchmark seeds disjoint *)
let corpus_seed () = !seed * 100_003

let generated_cells () =
  Nestir.Gennest.generate_many ~seed:(corpus_seed ()) ~count:!corpus
  |> List.map (fun nest ->
         ( {
             Workloads.name = nest.Nestir.Loopnest.nest_name;
             description = "";
             nest;
             schedule = Nestir.Schedule.all_parallel nest;
           },
           2 ))
  |> Array.of_list

(* set-up run three times, each between two calibrations; the last
   result is kept.  Returns the (start, end) of each. *)
let timed_setup f =
  let rec go n acc =
    calibrate ();
    let t0 = now () in
    let v = f () in
    let acc = (t0, now ()) :: acc in
    calibrate ();
    if n <= 1 then (v, List.rev acc) else go (n - 1) acc
  in
  go 3 []

let run_cells make inputs =
  let cells, setup = timed_setup make in
  let n = Array.length cells in
  let passes = max 1 !units in
  let lat = Array.make (passes * n) 0.0 and traced = Array.make (passes * n) false in
  let op_t = Array.make (passes * n) 0.0 in
  let first_csv = Array.make n "" in
  let skipped = ref 0 in
  let c0 = cpu_s () and t0 = now () in
  open_segment cpu_s;
  for p = 0 to passes - 1 do
    Array.iteri
      (fun i ((w : Workloads.t), m) ->
        next_segment cpu_s;
        (* in a traced run each cell is traced in every other pass *)
        tracing := !trace && (p + i) mod 2 = 1;
        let k = (p * n) + i in
        cur_op := k;
        let s = now () in
        let rows =
          match if !tracing then traced_cell w m else sweep_cell w m with
          | rows -> Some rows
          | exception e ->
            error ~kind:"exception" ~op:k "%s m=%d: exception %s" w.Workloads.name m
              (Printexc.to_string e);
            None
        in
        lat.(k) <- (now () -. s) *. 1000.0;
        op_t.(k) <- s;
        traced.(k) <- !tracing;
        match rows with
        | None -> ()
        | Some [] -> if p = 0 then incr skipped
        | Some rows ->
          List.iter
            (fun (r : Sweep.row) ->
              if not r.Sweep.validated then
                error ~kind:"invalid_row" ~op:k "%s m=%d %s: row not validated"
                  r.Sweep.workload m r.Sweep.model)
            rows;
          let csv = Sweep.to_csv rows in
          if p = 0 then begin
            first_csv.(i) <- csv;
            List.iter
              (fun (r : Sweep.row) -> priced := (r.Sweep.optimized, r.Sweep.baseline) :: !priced)
              rows
          end
          else if csv <> first_csv.(i) then
            error ~kind:"nondeterministic" ~op:k "%s m=%d: rows differ from the first pass"
              w.Workloads.name m)
      cells
  done;
  finish_segments cpu_s;
  let wall_s = now () -. t0 and cpu = cpu_s () -. c0 in
  tracing := false;
  if !trace then begin
    (* the first pass's traced ops against Sweep.run, untimed (later
       passes compare with the first pass anyway) *)
    Array.iteri
      (fun i ((w : Workloads.t), m) ->
        if traced.(i) && first_csv.(i) <> "" then
          match sweep_cell w m with
          | rows when Sweep.to_csv rows = first_csv.(i) -> ()
          | _ | (exception _) ->
            error ~kind:"nondeterministic" ~op:i "%s m=%d: traced rows differ from Sweep.run"
              w.Workloads.name m)
      cells;
    tracing := true;
    Array.iteri
      (fun i ((w : Workloads.t), m) ->
        cur_op := -1 - i;
        probe_layers w m)
      cells;
    tracing := false
  end;
  count "sweep.skipped" (float_of_int !skipped);
  { setup; wall_s; cpu_s = cpu; rss_kb = peak_rss_kb 0; lat_ms = lat; op_t; traced; inputs }

(* ---- sweep-warm ---- *)

let run_sweep_warm () =
  calibrate_both_cores := true;
  (* the default sweep over the curated workloads: the seed changes
     nothing here *)
  let warm_sweep () =
    Sweep.run ~jobs:2 ~ms:[ 1; 2; 3 ] ~cache:true ~mapping:greedy ~bounds:true ()
  in
  (* set-up: a cold jobs-2 sweep fills the cache, a jobs-1 sweep with
     the cache off is the reference every timed sweep must reproduce *)
  let reference, setup =
    timed_setup (fun () ->
        Cache.clear ();
        ignore (warm_sweep () : Sweep.row list);
        Sweep.to_csv
          (Sweep.run ~jobs:1 ~ms:[ 1; 2; 3 ] ~cache:false ~mapping:greedy ~bounds:true ()))
  in
  let n = max 1 !units in
  let lat = Array.make n 0.0 and traced = Array.make n false and op_t = Array.make n 0.0 in
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  let cell_ms = ref 0.0 and cost_ms = ref 0.0 and util = ref 0.0 and skipped = ref 0 in
  let c0 = cpu_s () and t0 = now () in
  open_segment cpu_s;
  for k = 0 to n - 1 do
    next_segment cpu_s;
    tracing := !trace && k mod 2 = 1;
    cur_op := k;
    let before = Cache.stats () and cs = cpu_s () and s = now () in
    let rows =
      match span "sweep" warm_sweep with
      | rows -> rows
      | exception e ->
        error ~kind:"exception" ~op:k "sweep %d: exception %s" k (Printexc.to_string e);
        []
    in
    let wall = now () -. s and cpu = cpu_s () -. cs in
    let after = Cache.stats () in
    lat.(k) <- wall *. 1000.0;
    op_t.(k) <- s;
    traced.(k) <- !tracing;
    if Sweep.to_csv rows <> reference then
      error ~kind:"nondeterministic" ~op:k "sweep %d: CSV differs from the jobs-1 sweep" k;
    List.iter
      (fun (r : Sweep.row) ->
        if not r.Sweep.validated then
          error ~kind:"invalid_row" ~op:k "sweep %d %s m=%d %s: row not validated" k
            r.Sweep.workload r.Sweep.m r.Sweep.model;
        if k = 0 then priced := (r.Sweep.optimized, r.Sweep.baseline) :: !priced;
        cost_ms := !cost_ms +. r.Sweep.cost_ms)
      rows;
    if k = 0 then
      skipped :=
        (3 * List.length (Workloads.all ()))
        - List.length
            (List.sort_uniq compare
               (List.map (fun (r : Sweep.row) -> (r.Sweep.workload, r.Sweep.m)) rows));
    (* time_ms is stamped into every model row of a cell: count it once *)
    List.iter
      (fun (r : Sweep.row) -> if r.Sweep.model = "cm5" then cell_ms := !cell_ms +. r.Sweep.time_ms)
      rows;
    hits := !hits + after.Cache.hits - before.Cache.hits;
    misses := !misses + after.Cache.misses - before.Cache.misses;
    evictions := !evictions + after.Cache.evictions - before.Cache.evictions;
    util := !util +. (cpu /. (wall *. 2.0))
  done;
  finish_segments cpu_s;
  let wall_s = now () -. t0 and cpu = cpu_s () -. c0 in
  tracing := false;
  let per x = x /. float_of_int n in
  count "cache.hits" (per (float_of_int !hits));
  count "cache.misses" (per (float_of_int !misses));
  count "cache.evictions" (per (float_of_int !evictions));
  count "cache.entries" (float_of_int (Cache.stats ()).Cache.entries);
  count "par.cpu_util" (per !util);
  count "sweep.cell_ms" (per !cell_ms);
  count "sweep.cost_ms" (per !cost_ms);
  count "sweep.skipped" (float_of_int !skipped);
  { setup; wall_s; cpu_s = cpu; rss_kb = peak_rss_kb 0; lat_ms = lat; op_t; traced;
    inputs = [] }

(* ---- serve-closed ---- *)

let parse_stats body =
  List.filter_map
    (fun l ->
      match String.index_opt l '=' with
      | Some i -> (
        match float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)) with
        | Some v -> Some (String.sub l 0 i, v)
        | None -> None)
      | None -> None)
    (String.split_on_char '\n' body)

let server_stats addr =
  match Serve.Client.connect addr with
  | Error e ->
    error ~kind:"bad_response" ~op:(-2) "stats: %s" e;
    []
  | Ok c ->
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    match Serve.Client.request c Serve.Wire.stats with
    | Ok (Serve.Wire.Answer body) -> parse_stats body
    | Ok r ->
      error ~kind:"bad_response" ~op:(-2) "stats: %s" (Serve.Wire.status r);
      []
    | Error e ->
      error ~kind:"bad_response" ~op:(-2) "stats: %s" e;
      []

let clients = 2

let run_serve () =
  calibrate_both_cores := true;
  let addr = Serve.Wire.Unix_sock !socket in
  let n = max 1 !units in
  let requests = Array.of_list (Serve.Loadgen.mix ~seed:!seed ~n ()) in
  (* the oracle: every distinct solve answered locally, up front *)
  tracing := !trace;
  let expected = Hashtbl.create 1024 in
  Array.iter
    (fun r ->
      let key = Serve.Wire.solve_key r in
      if not (Hashtbl.mem expected key) then
        Hashtbl.add expected key (span "answer" (fun () -> Serve.Answer.of_request r)))
    requests;
  (* plan prices of the (workload, m) pairs the mix asks for, one row
     per pair and model as in the cell workloads *)
  let pairs =
    Array.to_list requests
    |> List.map (fun r -> (r.Serve.Wire.workload, r.Serve.Wire.m))
    |> List.sort_uniq compare
  in
  List.iter
    (fun (name, m) ->
      match sweep_cell (Workloads.find name) m with
      | rows ->
        List.iter
          (fun (r : Sweep.row) -> priced := (r.Sweep.optimized, r.Sweep.baseline) :: !priced)
          rows
      | exception e ->
        error ~kind:"exception" ~op:(-1) "%s m=%d: exception %s" name m (Printexc.to_string e))
    pairs;
  if !trace then
    List.iter
      (fun (name, m) ->
        let w = Workloads.find name in
        let schedule = w.Workloads.schedule in
        try ignore (span "pipeline" (fun () -> Pipeline.run ~m ~schedule w.Workloads.nest))
        with _ -> ())
      pairs;
  tracing := false;
  let lat = Array.make n 0.0 and traced = Array.make n false and op_t = Array.make n 0.0 in
  let mism = Array.make clients 0 in
  let conns = Array.init clients (fun _ -> Serve.Client.connect addr) in
  (* client c sends requests lo + c, lo + c + clients, ... below hi *)
  let worker c lo hi =
    let i = ref (lo + c) in
    while !i < hi do
      let r = requests.(!i) in
      let s = now () in
      let resp =
        match conns.(c) with
        | Ok t -> Serve.Client.request t r
        | Error e -> Error e
      in
      let e = now () in
      lat.(!i) <- (e -. s) *. 1000.0;
      op_t.(!i) <- s;
      let fail fmt =
        Printf.ksprintf (fun m -> error ~kind:"bad_response" ~op:!i "request %d: %s" !i m) fmt
      in
      (match resp with
      | Ok (Serve.Wire.Answer body) -> (
        match Hashtbl.find expected (Serve.Wire.solve_key r) with
        | Ok want when want = body -> ()
        | _ ->
          mism.(c) <- mism.(c) + 1;
          fail "body differs from the local answer")
      | Ok other -> fail "%s" (Serve.Wire.status other)
      | Error msg ->
        fail "%s" msg;
        (match conns.(c) with Ok t -> Serve.Client.close t | Error _ -> ());
        conns.(c) <- Serve.Client.connect addr);
      i := !i + clients
    done
  in
  let before = server_stats addr in
  let server_cpu () = proc_cpu_s !server_pid in
  let c0 = server_cpu () and t0 = now () in
  (* the load runs in blocks of [block] requests, one segment each; the
     clients stay connected across blocks *)
  let block = 1000 in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + block) in
    open_segment server_cpu;
    let first = !lo in
    let threads = List.init clients (fun c -> Thread.create (fun () -> worker c first hi) ()) in
    List.iter Thread.join threads;
    close_segment server_cpu;
    lo := hi
  done;
  calibrate ();
  Array.iter (function Ok t -> Serve.Client.close t | Error _ -> ()) conns;
  let wall_s = now () -. t0 and cpu = server_cpu () -. c0 in
  let after = server_stats addr in
  let delta k =
    Option.value ~default:0.0 (List.assoc_opt k after)
    -. Option.value ~default:0.0 (List.assoc_opt k before)
  in
  List.iter
    (fun k -> count ("serve." ^ k) (delta k))
    [ "coalesced"; "shed"; "timeout"; "cache_hits"; "cache_misses" ];
  List.iter
    (fun k -> Option.iter (count ("serve." ^ k)) (List.assoc_opt k after))
    [ "latency_ms_p50"; "latency_ms_p99" ];
  count "serve.mismatches" (float_of_int (Array.fold_left ( + ) 0 mism));
  { setup = []; wall_s; cpu_s = cpu; rss_kb = peak_rss_kb !server_pid; lat_ms = lat; op_t; traced;
    inputs = [ ("mix_seed", !seed); ("requests", n) ] }

(* the readiness probe of perfbench/server.py, through the library's
   own client *)
let ping path =
  match Serve.Client.connect (Serve.Wire.Unix_sock path) with
  | Error _ -> false
  | Ok c ->
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    (match Serve.Client.request c Serve.Wire.ping with
    | Ok (Serve.Wire.Answer _) -> true
    | Ok _ | Error _ -> false)

let () =
  parse_args ();
  if !ping_socket <> "" then exit (if ping !ping_socket then 0 else 1);
  let r =
    match !workload with
    | "curated-cells" -> run_cells curated_cells [ ("order_seed", !seed) ]
    | "generated-cells" ->
      run_cells generated_cells [ ("corpus_seed", corpus_seed ()); ("corpus", !corpus) ]
    | "sweep-warm" -> run_sweep_warm ()
    | "serve-closed" -> run_serve ()
    | w ->
      prerr_endline ("harness: unknown workload " ^ w);
      exit 2
  in
  write_spans ();
  print_result r
