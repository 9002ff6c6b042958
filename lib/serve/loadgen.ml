type summary = {
  sent : int;
  ok : int;
  shed : int;
  timeout : int;
  errors : int;
  mismatches : int;
  mismatched : string list;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  wall_s : float;
  achieved_qps : float;
}

(* One request per index, every field a pure hash of (seed, i, slot) —
   the same derivation trick Fault uses for drop schedules, so a mix
   is reproducible whatever thread interleaving replays it. *)
let mix ~seed ?deadline_ms ~n () =
  let names =
    List.map (fun (w : Resopt.Workloads.t) -> w.Resopt.Workloads.name)
      (Resopt.Workloads.all ())
  in
  let names = Array.of_list names in
  let pick u bound = min (bound - 1) (int_of_float (u *. float_of_int bound)) in
  List.init n (fun i ->
      let u k = Machine.Backoff.hash_unit ~seed [ i; k ] in
      let workload = names.(pick (u 0) (Array.length names)) in
      let m = 1 + pick (u 1) 3 in
      let faults, fseed =
        if u 2 < 0.3 then (Some "flaky:0.05", pick (u 3) 64) else (None, 0)
      in
      let map, mseed =
        if u 4 < 0.2 then (Some "greedy", pick (u 5) 16) else (None, 0)
      in
      let r = Wire.run ~m ?faults ~fseed ?map ~mseed workload in
      { r with Wire.deadline_ms })

(* per-client tallies, merged after join — workers share nothing *)
type tally = {
  mutable t_ok : int;
  mutable t_shed : int;
  mutable t_timeout : int;
  mutable t_errors : int;
  mutable t_mismatches : int;
  mutable t_mismatched : string list;
  mutable t_lat : float list;
}

let run ~addr ~clients ?(qps = 0.0) ?(verify = false) ~requests ~seed () =
  let clients = max 1 clients in
  let requests = Array.of_list requests in
  let n = Array.length requests in
  (* the oracle is computed up front, single-threaded: Answer solves
     with whatever ambient Cache/Obs state this process has, and the
     worker threads then only read the finished table *)
  let expected : (string, (string, string) result) Hashtbl.t =
    Hashtbl.create 64
  in
  if verify then
    Array.iter
      (fun r ->
        if r.Wire.op = Wire.Run then
          let key = Wire.solve_key r in
          if not (Hashtbl.mem expected key) then
            Hashtbl.add expected key (Answer.of_request r))
      requests;
  let t_start = Unix.gettimeofday () in
  let interval = if qps > 0.0 then float_of_int clients /. qps else 0.0 in
  let worker c =
    let tl =
      { t_ok = 0; t_shed = 0; t_timeout = 0; t_errors = 0; t_mismatches = 0;
        t_mismatched = []; t_lat = [] }
    in
    let backoff = Client.default_backoff ~seed:(seed + c) in
    let sent = ref 0 in
    for i = 0 to n - 1 do
      if i mod clients = c then begin
        if interval > 0.0 then begin
          let due = t_start +. (float_of_int !sent *. interval) in
          let wait = due -. Unix.gettimeofday () in
          if wait > 0.0 then Unix.sleepf wait
        end;
        incr sent;
        let req = requests.(i) in
        let t0 = Unix.gettimeofday () in
        let outcome = Client.call ~backoff addr req in
        tl.t_lat <- ((Unix.gettimeofday () -. t0) *. 1000.0) :: tl.t_lat;
        (match outcome with
        | Ok (Wire.Answer body) ->
          tl.t_ok <- tl.t_ok + 1;
          if verify && req.Wire.op = Wire.Run then begin
            let key = Wire.solve_key req in
            match Hashtbl.find_opt expected key with
            | Some (Ok want) when want = body -> ()
            | _ ->
              tl.t_mismatches <- tl.t_mismatches + 1;
              if List.length tl.t_mismatched < 5 then
                tl.t_mismatched <- key :: tl.t_mismatched
          end
        | Ok (Wire.Shed _) -> tl.t_shed <- tl.t_shed + 1
        | Ok (Wire.Timeout _) -> tl.t_timeout <- tl.t_timeout + 1
        | Ok (Wire.Failed _) | Error _ -> tl.t_errors <- tl.t_errors + 1)
      end
    done;
    tl
  in
  let tallies =
    if clients = 1 then [ worker 0 ]
    else begin
      (* each worker writes its own slot; joined before reading *)
      let results = Array.make clients None in
      let ths =
        List.init clients (fun c ->
            Thread.create (fun c -> results.(c) <- Some (worker c)) c)
      in
      List.iter Thread.join ths;
      Array.to_list results |> List.filter_map Fun.id
    end
  in
  let wall_s = Unix.gettimeofday () -. t_start in
  let lats =
    Array.of_list (List.concat_map (fun tl -> tl.t_lat) tallies)
  in
  let sum f = List.fold_left (fun a tl -> a + f tl) 0 tallies in
  let p q = Obs.Telemetry.percentile lats q in
  {
    sent = n;
    ok = sum (fun tl -> tl.t_ok);
    shed = sum (fun tl -> tl.t_shed);
    timeout = sum (fun tl -> tl.t_timeout);
    errors = sum (fun tl -> tl.t_errors);
    mismatches = sum (fun tl -> tl.t_mismatches);
    mismatched = List.concat_map (fun tl -> List.rev tl.t_mismatched) tallies;
    p50_ms = p 50.0;
    p95_ms = p 95.0;
    p99_ms = p 99.0;
    wall_s;
    achieved_qps = (if wall_s > 0.0 then float_of_int n /. wall_s else 0.0);
  }

let pp ppf s =
  Format.fprintf ppf
    "loadgen: %d sent  %d ok  %d shed  %d timeout  %d errors  %d mismatches@."
    s.sent s.ok s.shed s.timeout s.errors s.mismatches;
  Format.fprintf ppf
    "latency_ms: p50 %.2f  p95 %.2f  p99 %.2f   (%.2fs wall, %.1f qps)@."
    s.p50_ms s.p95_ms s.p99_ms s.wall_s s.achieved_qps

let summary_json s =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\n";
  let field ?(last = false) k v =
    Buffer.add_string b (Printf.sprintf "  %S: %s%s\n" k v (if last then "" else ","))
  in
  field "sent" (string_of_int s.sent);
  field "ok" (string_of_int s.ok);
  field "shed" (string_of_int s.shed);
  field "timeout" (string_of_int s.timeout);
  field "errors" (string_of_int s.errors);
  field "mismatches" (string_of_int s.mismatches);
  field "p50_ms" (Printf.sprintf "%.3f" s.p50_ms);
  field "p95_ms" (Printf.sprintf "%.3f" s.p95_ms);
  field "p99_ms" (Printf.sprintf "%.3f" s.p99_ms);
  field "wall_s" (Printf.sprintf "%.3f" s.wall_s);
  field ~last:true "achieved_qps" (Printf.sprintf "%.3f" s.achieved_qps);
  Buffer.add_string b "}\n";
  Buffer.contents b
