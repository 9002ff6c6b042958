(* Telemetry store + renderers.  Recording state is one process-wide,
   mutex-guarded run list (like the Obs and Profile stores), so a run
   recorded on any domain is kept, in arrival order; the render
   functions are pure and usable on any run value. *)

type outcome = Delivered | Dropped | Unreachable

type message = {
  msg_src : int;
  msg_dst : int;
  msg_bytes : int;
  injected_at : int;
  finished_at : int;
  hops : int;
  queue_wait : int;
  retransmits : int;
  outcome : outcome;
}

type link = {
  link_src : int;
  link_dst : int;
  busy : int;
  carried : int;
  packets : int;
  peak_queue : int;
  queue_area : int;
  stalled : int;
}

type event = { ev_cycle : int; ev_kind : string; ev_msg : int }

type run = {
  sim : string;
  label : string;
  dims : int array;
  torus : bool;
  topo_spec : string;
  total_cycles : int;
  fault_spec : string;
  messages : message list;
  links : link list;
  events : event list;
}

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let enabled_flag = ref false
let lock = Mutex.create ()
let run_log : run list ref = ref [] (* reverse arrival order *)

let enable () = enabled_flag := true
let disable () = enabled_flag := false
let enabled () = !enabled_flag
let reset () = Mutex.protect lock (fun () -> run_log := [])

let record_run r =
  if !enabled_flag then Mutex.protect lock (fun () -> run_log := r :: !run_log)

let runs () = Mutex.protect lock (fun () -> List.rev !run_log)

let last_run () =
  Mutex.protect lock (fun () -> match !run_log with [] -> None | r :: _ -> Some r)

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let gini xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let total = Array.fold_left ( +. ) 0.0 xs in
    if total <= 0.0 then 0.0
    else begin
      let diff = ref 0.0 in
      Array.iter
        (fun a -> Array.iter (fun b -> diff := !diff +. Float.abs (a -. b)) xs)
        xs;
      !diff /. (2.0 *. float_of_int n *. total)
    end
  end

let latencies run =
  Array.of_list
    (List.filter_map
       (fun m ->
         if m.outcome = Delivered && m.injected_at >= 0 then
           Some (float_of_int (m.finished_at - m.injected_at))
         else None)
       run.messages)

let queue_waits run =
  Array.of_list
    (List.filter_map
       (fun m ->
         if m.injected_at >= 0 then Some (float_of_int m.queue_wait) else None)
       run.messages)

let link_loads run =
  Array.of_list
    (List.map
       (fun l ->
         float_of_int (if run.total_cycles > 0 then l.busy else l.carried))
       run.links)

(* ------------------------------------------------------------------ *)
(* ASCII heatmap                                                       *)
(* ------------------------------------------------------------------ *)

(* Fold the two directions of each physical edge into one undirected
   load (the hotter direction: utilization, not volume). *)
let undirected loads =
  let tbl : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ((a, b), v) ->
      let k = (min a b, max a b) in
      let cur = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (max cur v))
    loads;
  tbl

let glyph peak v =
  if v = 0 then '.' else Char.chr (Char.code '0' + min 9 (1 + (v * 8 / peak)))

let link_table loads =
  let buf = Buffer.create 256 in
  List.iter
    (fun ((a, b), v) -> Buffer.add_string buf (Printf.sprintf "%4d -> %-4d %8d\n" a b v))
    (List.sort (fun (_, x) (_, y) -> compare (y : int) x) loads);
  Buffer.contents buf

let heatmap ~dims ~torus loads =
  let rows, cols =
    match Array.length dims with
    | 1 -> (1, dims.(0))
    | 2 -> (dims.(0), dims.(1))
    | _ -> (0, 0)
  in
  if rows = 0 then link_table loads
  else begin
    let und = undirected loads in
    let peak = Hashtbl.fold (fun _ v acc -> max v acc) und 1 in
    let load a b =
      Option.value ~default:0 (Hashtbl.find_opt und (min a b, max a b))
    in
    let rank r c = (r * cols) + c in
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf
         "link heatmap ('.'=idle, '1'-'9' scaled to peak %d%s):\n" peak
         (if torus then "; '~'=torus wrap" else ""));
    for r = 0 to rows - 1 do
      (* node row: + <h-link> + ... [~wrap] *)
      for c = 0 to cols - 1 do
        Buffer.add_char buf '+';
        if c < cols - 1 then
          Buffer.add_string buf
            (Printf.sprintf "  %c  " (glyph peak (load (rank r c) (rank r (c + 1)))))
      done;
      if torus && cols > 2 then
        Buffer.add_string buf
          (Printf.sprintf "  ~%c" (glyph peak (load (rank r (cols - 1)) (rank r 0))));
      Buffer.add_char buf '\n';
      (* vertical links towards the next row *)
      if r < rows - 1 then begin
        for c = 0 to cols - 1 do
          Buffer.add_char buf (glyph peak (load (rank r c) (rank (r + 1) c)));
          if c < cols - 1 then Buffer.add_string buf "     "
        done;
        Buffer.add_char buf '\n'
      end
    done;
    if torus && rows > 2 then begin
      for c = 0 to cols - 1 do
        Buffer.add_char buf '~';
        Buffer.add_char buf (glyph peak (load (rank (rows - 1) c) (rank 0 c)));
        if c < cols - 1 then Buffer.add_string buf "    "
      done;
      Buffer.add_char buf '\n'
    end;
    Buffer.contents buf
  end

(* ------------------------------------------------------------------ *)
(* Full ASCII report                                                   *)
(* ------------------------------------------------------------------ *)

let count_outcome run o =
  List.length (List.filter (fun m -> m.outcome = o) run.messages)

let total_retransmits run =
  List.fold_left (fun acc m -> acc + m.retransmits) 0 run.messages

let pct_line name xs =
  if Array.length xs = 0 then Printf.sprintf "%s: (no samples)\n" name
  else
    Printf.sprintf "%s: p50 %.1f  p95 %.1f  p99 %.1f  (min %.1f, max %.1f)\n" name
      (percentile xs 50.0) (percentile xs 95.0) (percentile xs 99.0)
      (percentile xs 0.0) (percentile xs 100.0)

let render_ascii run =
  let buf = Buffer.create 1024 in
  let where =
    if run.topo_spec <> "" then run.topo_spec
    else
      Printf.sprintf "%s %s"
        (String.concat "x" (Array.to_list (Array.map string_of_int run.dims)))
        (if run.torus then "torus" else "mesh")
  in
  Buffer.add_string buf
    (Printf.sprintf "telemetry: %s%s on %s, %d messages%s\n" run.sim
       (if run.label = "" then "" else " [" ^ run.label ^ "]")
       where
       (List.length run.messages)
       (if run.total_cycles > 0 then Printf.sprintf ", %d cycles" run.total_cycles
        else ""));
  if run.fault_spec <> "" then
    Buffer.add_string buf (Printf.sprintf "faults: %s\n" run.fault_spec);
  Buffer.add_string buf
    (Printf.sprintf "outcome: delivered %d  dropped %d  unreachable %d  retransmits %d\n"
       (count_outcome run Delivered) (count_outcome run Dropped)
       (count_outcome run Unreachable) (total_retransmits run));
  if run.total_cycles > 0 then begin
    Buffer.add_string buf (pct_line "latency (cycles)" (latencies run));
    Buffer.add_string buf (pct_line "queue wait (cycles)" (queue_waits run))
  end;
  let loads = link_loads run in
  Buffer.add_string buf
    (Printf.sprintf "links: %d active, load gini %.3f (%s)\n" (Array.length loads)
       (gini loads)
       (if run.total_cycles > 0 then "busy cycles" else "bytes"));
  let load_pairs =
    List.map
      (fun l ->
        ( (l.link_src, l.link_dst),
          if run.total_cycles > 0 then l.busy else l.carried ))
      run.links
  in
  Buffer.add_string buf (heatmap ~dims:run.dims ~torus:run.torus load_pairs);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON + HTML dashboard                                               *)
(* ------------------------------------------------------------------ *)

let pct_obj xs =
  Printf.sprintf "{\"p50\":%s,\"p95\":%s,\"p99\":%s,\"min\":%s,\"max\":%s,\"count\":%d}"
    (Json.float (percentile xs 50.0))
    (Json.float (percentile xs 95.0))
    (Json.float (percentile xs 99.0))
    (Json.float (percentile xs 0.0))
    (Json.float (percentile xs 100.0))
    (Array.length xs)

let outcome_str = function
  | Delivered -> "delivered"
  | Dropped -> "dropped"
  | Unreachable -> "unreachable"

let message_json m =
  Printf.sprintf
    "{\"src\":%d,\"dst\":%d,\"bytes\":%d,\"injected\":%d,\"finished\":%d,\"hops\":%d,\"queue_wait\":%d,\"retransmits\":%d,\"outcome\":%s}"
    m.msg_src m.msg_dst m.msg_bytes m.injected_at m.finished_at m.hops
    m.queue_wait m.retransmits
    (Json.str (outcome_str m.outcome))

let link_json l =
  Printf.sprintf
    "{\"src\":%d,\"dst\":%d,\"busy\":%d,\"carried\":%d,\"packets\":%d,\"peak_queue\":%d,\"queue_area\":%d,\"stalled\":%d}"
    l.link_src l.link_dst l.busy l.carried l.packets l.peak_queue l.queue_area
    l.stalled

let event_json e =
  Printf.sprintf "{\"cycle\":%d,\"kind\":%s,\"msg\":%d}" e.ev_cycle
    (Json.str e.ev_kind) e.ev_msg

(* The dashboard never needs more than a bounded sample of the raw
   per-message and per-event rows; the aggregates are always exact. *)
let max_embedded = 5000

let bounded l = List.filteri (fun i _ -> i < max_embedded) l

let run_json run =
  Printf.sprintf
    "{\"sim\":%s,\"label\":%s,\"dims\":[%s],\"torus\":%b%s,\"cycles\":%d,\"faults\":%s,\"summary\":{\"messages\":%d,\"delivered\":%d,\"dropped\":%d,\"unreachable\":%d,\"retransmits\":%d,\"latency\":%s,\"queue_wait\":%s,\"link_gini\":%s},\"links\":[%s],\"messages\":[%s],\"events\":[%s]}"
    (Json.str run.sim) (Json.str run.label)
    (String.concat "," (Array.to_list (Array.map string_of_int run.dims)))
    run.torus
    (if run.topo_spec = "" then ""
     else ",\"topo\":" ^ Json.str run.topo_spec)
    run.total_cycles
    (Json.str run.fault_spec)
    (List.length run.messages)
    (count_outcome run Delivered)
    (count_outcome run Dropped)
    (count_outcome run Unreachable)
    (total_retransmits run)
    (pct_obj (latencies run))
    (pct_obj (queue_waits run))
    (Json.float (gini (link_loads run)))
    (String.concat "," (List.map link_json run.links))
    (String.concat "," (List.map message_json (bounded run.messages)))
    (String.concat "," (List.map event_json (bounded run.events)))

(* A '<' in the payload can only sit inside a JSON string, where
   \u003c means the same; rewriting every one keeps a label such as
   "</script>" from closing the <script> block the payload lives in. *)
let render_html ?extra runs =
  let payload =
    String.concat "\\u003c"
      (String.split_on_char '<'
         ("{\"runs\":[" ^ String.concat "," (List.map run_json runs) ^ "]}"))
  in
  String.concat "\n"
    ([
       "<!DOCTYPE html>";
       "<html><head><meta charset=\"utf-8\"><title>resopt telemetry</title>";
       "<style>";
       "body{font-family:ui-monospace,monospace;margin:20px;background:#16181d;color:#d8dee9}";
       "h1{font-size:18px} h2{font-size:14px;margin:18px 0 6px}";
       "table{border-collapse:collapse;margin:6px 0} td,th{border:1px solid #3b4252;padding:2px 8px;font-size:12px;text-align:right}";
       "th{background:#242933} .lbl{text-align:left} canvas{background:#0d0f12;border:1px solid #3b4252;margin:4px 0}";
       ".bar{display:inline-block;background:#5e81ac;height:10px}";
       "</style></head><body>";
       "<h1>resopt network telemetry</h1>";
     ]
    @ (match extra with None -> [] | Some html -> [ html ])
    @ [
      "<div id=\"root\"></div>";
      "<script type=\"application/json\" id=\"telemetry-data\">" ^ payload
      ^ "</script>";
      "<script>";
      "const data = JSON.parse(document.getElementById('telemetry-data').textContent);";
      "const root = document.getElementById('root');";
      "const esc = s => String(s).replace(/&/g,'&amp;').replace(/</g,'&lt;');";
      "function heat(v, peak){ const t = peak > 0 ? v / peak : 0;";
      "  const r = Math.round(40 + 215 * t), g = Math.round(70 + 60 * (1 - t)), b = Math.round(120 * (1 - t) + 20);";
      "  return `rgb(${r},${g},${b})`; }";
      "function pctRow(name, p){ return `<tr><td class=lbl>${esc(name)}</td><td>${p.count}</td><td>${p.p50}</td><td>${p.p95}</td><td>${p.p99}</td><td>${p.min}</td><td>${p.max}</td></tr>`; }";
      "data.runs.forEach((run, idx) => {";
      "  const sec = document.createElement('div');";
      "  const s = run.summary;";
      "  const where = run.topo ? esc(run.topo) : `${run.dims.join('x')} ${run.torus ? 'torus' : 'mesh'}`;";
      "  let html = `<h2>run ${idx}: ${esc(run.sim)} ${esc(run.label)} — ${where}`;";
      "  if (run.cycles > 0) html += `, ${run.cycles} cycles`;";
      "  if (run.faults) html += `, faults ${esc(run.faults)}`;";
      "  html += `</h2>`;";
      "  html += `<table><tr><th>messages</th><th>delivered</th><th>dropped</th><th>unreachable</th><th>retransmits</th><th>link gini</th></tr>`;";
      "  html += `<tr><td>${s.messages}</td><td>${s.delivered}</td><td>${s.dropped}</td><td>${s.unreachable}</td><td>${s.retransmits}</td><td>${s.link_gini}</td></tr></table>`;";
      "  html += `<table><tr><th class=lbl>series</th><th>n</th><th>p50</th><th>p95</th><th>p99</th><th>min</th><th>max</th></tr>`;";
      "  html += pctRow('latency (cycles)', s.latency);";
      "  html += pctRow('queue wait (cycles)', s.queue_wait);";
      "  html += `</table>`;";
      "  sec.innerHTML = html;";
      "  if (run.dims.length === 2) {";
      "    const [rows, cols] = run.dims, cell = 34, pad = 14;";
      "    const cv = document.createElement('canvas');";
      "    cv.width = cols * cell + 2 * pad; cv.height = rows * cell + 2 * pad;";
      "    const ctx = cv.getContext('2d');";
      "    const measure = l => run.cycles > 0 ? l.busy : l.carried;";
      "    const peak = Math.max(1, ...run.links.map(measure));";
      "    const xy = r => [pad + (r % cols) * cell + cell / 2, pad + Math.floor(r / cols) * cell + cell / 2];";
      "    run.links.forEach(l => {";
      "      const [x1, y1] = xy(l.src), [x2, y2] = xy(l.dst);";
      "      const wrap = Math.abs(x1 - x2) > cell * 1.5 || Math.abs(y1 - y2) > cell * 1.5;";
      "      ctx.strokeStyle = heat(measure(l), peak);";
      "      ctx.lineWidth = 1 + 5 * measure(l) / peak;";
      "      ctx.setLineDash(wrap ? [3, 3] : []);";
      "      ctx.beginPath(); ctx.moveTo(x1, y1); ctx.lineTo(x2, y2); ctx.stroke();";
      "    });";
      "    ctx.setLineDash([]); ctx.fillStyle = '#d8dee9';";
      "    for (let r = 0; r < rows * cols; r++) { const [x, y] = xy(r);";
      "      ctx.beginPath(); ctx.arc(x, y, 3, 0, 7); ctx.fill(); }";
      "    sec.appendChild(cv);";
      "  }";
      "  const lat = run.messages.filter(m => m.outcome === 'delivered' && m.injected >= 0).map(m => m.finished - m.injected);";
      "  if (lat.length > 0) {";
      "    const hist = document.createElement('div');";
      "    const bins = 20, lo = Math.min(...lat), hi = Math.max(...lat), w = Math.max(1, (hi - lo) / bins);";
      "    const counts = new Array(bins).fill(0);";
      "    lat.forEach(v => counts[Math.min(bins - 1, Math.floor((v - lo) / w))]++);";
      "    const peakC = Math.max(...counts);";
      "    hist.innerHTML = '<h2>latency histogram (cycles)</h2>' + counts.map((c, i) =>";
      "      `<div>${(lo + i * w).toFixed(0).padStart(8)} <span class=bar style=\"width:${Math.round(300 * c / peakC)}px\"></span> ${c}</div>`).join('');";
      "    sec.appendChild(hist);";
      "  }";
      "  root.appendChild(sec);";
      "});";
      "</script></body></html>";
    ])
