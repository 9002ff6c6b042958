(* Benchmark history records, JSONL persistence and the regression
   comparator.  Self-contained: includes a minimal JSON reader so the
   committed BENCH_*.json snapshots can be compared without adding a
   package dependency. *)

let schema_version = 1

type record = {
  version : int;
  experiment : string;
  metric : string;
  value : float;
  jobs : int option;
  cache_on : bool;
  faults : string;
  git_rev : string;
  timestamp : string;
}

let make ?jobs ?(cache_on = false) ?(faults = "") ?(git_rev = "")
    ?(timestamp = "") ~experiment ~metric value =
  {
    version = schema_version;
    experiment;
    metric;
    value;
    jobs;
    cache_on;
    faults;
    git_rev;
    timestamp;
  }

(* ------------------------------------------------------------------ *)
(* JSON writing                                                        *)
(* ------------------------------------------------------------------ *)

let json_num v =
  if Float.is_finite v then
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.6g" v
  else "0"

let to_line r =
  Printf.sprintf
    "{\"v\":%d,\"experiment\":%s,\"metric\":%s,\"value\":%s,\"jobs\":%s,\"cache\":%b,\"faults\":%s,\"rev\":%s,\"ts\":%s}"
    r.version (Json.str r.experiment) (Json.str r.metric) (json_num r.value)
    (match r.jobs with None -> "null" | Some j -> string_of_int j)
    r.cache_on (Json.str r.faults) (Json.str r.git_rev) (Json.str r.timestamp)

(* ------------------------------------------------------------------ *)
(* JSON reading (minimal recursive-descent parser)                     *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let parse_lit lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some 'n' ->
          Buffer.add_char buf '\n';
          advance ();
          loop ()
        | Some 't' ->
          Buffer.add_char buf '\t';
          advance ();
          loop ()
        | Some 'r' ->
          Buffer.add_char buf '\r';
          advance ();
          loop ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "bad \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          let code =
            try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
          in
          (* Good enough for our own output: ASCII range only. *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_char buf '?';
          loop ()
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
        | None -> fail "unterminated escape")
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while
      match peek () with Some c when is_num_char c -> true | _ -> false
    do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail "expected , or }"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        Arr (elements [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> parse_lit "true" (Bool true)
    | Some 'f' -> parse_lit "false" (Bool false)
    | Some 'n' -> parse_lit "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Record (de)serialization                                            *)
(* ------------------------------------------------------------------ *)

let of_line line =
  match parse_json line with
  | exception Parse_error msg -> Error msg
  | Obj fields -> (
    let find k = List.assoc_opt k fields in
    let str k = match find k with Some (Str s) -> Some s | _ -> None in
    let num k = match find k with Some (Num f) -> Some f | _ -> None in
    match (num "v", str "experiment", str "metric", num "value") with
    | Some v, _, _, _ when int_of_float v <> schema_version ->
      Error
        (Printf.sprintf "schema version mismatch: got %d, expected %d"
           (int_of_float v) schema_version)
    | Some v, Some experiment, Some metric, Some value ->
      Ok
        {
          version = int_of_float v;
          experiment;
          metric;
          value;
          jobs =
            (match find "jobs" with
            | Some (Num j) -> Some (int_of_float j)
            | _ -> None);
          cache_on = (match find "cache" with Some (Bool b) -> b | _ -> false);
          faults = Option.value ~default:"" (str "faults");
          git_rev = Option.value ~default:"" (str "rev");
          timestamp = Option.value ~default:"" (str "ts");
        }
    | None, _, _, _ -> Error "missing schema version"
    | _ -> Error "missing experiment/metric/value")
  | _ -> Error "record line is not a JSON object"

let append file records =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun r -> output_string oc (to_line r ^ "\n")) records)

let load file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line when String.trim line = "" -> loop acc
        | line -> (
          match of_line line with Ok r -> loop (r :: acc) | Error _ -> loop acc)
      in
      loop [])

(* ------------------------------------------------------------------ *)
(* Metric sets                                                         *)
(* ------------------------------------------------------------------ *)

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let metrics_of_json text =
  let prefix path key = if path = "" then key else path ^ "." ^ key in
  let rec flatten path v acc =
    match v with
    | Num f -> (path, f) :: acc
    | Bool b -> (path, if b then 1.0 else 0.0) :: acc
    | Obj fields ->
      List.fold_left (fun acc (k, v) -> flatten (prefix path k) v acc) acc fields
    | Arr items ->
      let acc, _ =
        List.fold_left
          (fun (acc, i) v -> (flatten (prefix path (string_of_int i)) v acc, i + 1))
          (acc, 0) items
      in
      acc
    | Str _ | Null -> acc
  in
  List.rev (flatten "" (parse_json text) [])

let load_metrics file =
  let text = read_file file in
  let first_line =
    match String.index_opt text '\n' with
    | Some i -> String.sub text 0 i
    | None -> text
  in
  (* A history file is JSONL whose lines are versioned records; anything
     else is treated as one JSON document. *)
  match of_line (String.trim first_line) with
  | Ok _ ->
    let tbl = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun r ->
        let key = r.experiment ^ "." ^ r.metric in
        if not (Hashtbl.mem tbl key) then order := key :: !order;
        Hashtbl.replace tbl key r.value)
      (load file);
    List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order
  | Error _ -> metrics_of_json text

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

type direction = Lower_better | Higher_better | Informational

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub hay i nn = needle || loop (i + 1)) in
  nn > 0 && loop 0

let ends_with suffix s =
  let ns = String.length s and nf = String.length suffix in
  ns >= nf && String.sub s (ns - nf) nf = suffix

(* Explicit per-metric directions, matched on the last dotted segment
   of the name and consulted before the substring heuristic below —
   the place to pin a metric the heuristic would misread.  An
   [efficiency] drop is a regression the gate must fail on; the bounds
   themselves ([bound_bytes], [bound_time]) may legitimately move in
   either direction (tightening a bound raises it), so they stay
   informational, as do the achieved bytes they are compared to. *)
let explicit_directions =
  [
    ("efficiency", Higher_better);
    ("bound_bytes", Informational);
    ("bound_time", Informational);
    ("achieved_bytes", Informational);
  ]

let direction_of_metric name =
  let name = String.lowercase_ascii name in
  let last_segment =
    match String.rindex_opt name '.' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  match List.assoc_opt last_segment explicit_directions with
  | Some d -> d
  | None ->
    let higher = [ "speedup"; "gain"; "ratio"; "per_sec"; "cells"; "delivered" ] in
    let lower =
      [ "seconds"; "cycles"; "time"; "dropped"; "retrans"; "wait"; "cost" ]
    in
    if List.exists (contains name) higher then Higher_better
    else if
      List.exists (contains name) lower
      || List.exists (fun sfx -> ends_with sfx name) [ "_s"; "_ms"; "_us" ]
    then Lower_better
    else Informational

type verdict =
  | Pass
  | Regression of { base : float; cur : float; limit : float }
  | Missing
  | Added

type comparison = {
  comp_metric : string;
  comp_direction : direction;
  comp_verdict : verdict;
}

let compare_metrics ?(threshold = 0.3) ~baseline ~current () =
  let cur_tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace cur_tbl k v) current;
  let base_keys = Hashtbl.create 64 in
  List.iter (fun (k, _) -> Hashtbl.replace base_keys k ()) baseline;
  let compared =
    List.map
      (fun (k, base) ->
        let direction = direction_of_metric k in
        let verdict =
          match Hashtbl.find_opt cur_tbl k with
          | None -> Missing
          | Some cur -> (
            match direction with
            | Informational -> Pass
            | Lower_better ->
              let limit = base *. (1.0 +. threshold) in
              if base = 0.0 then
                if cur > 0.0 then Regression { base; cur; limit = 0.0 } else Pass
              else if cur > limit then Regression { base; cur; limit }
              else Pass
            | Higher_better ->
              let limit = base *. (1.0 -. threshold) in
              if cur < limit then Regression { base; cur; limit } else Pass)
        in
        { comp_metric = k; comp_direction = direction; comp_verdict = verdict })
      baseline
  in
  let added =
    List.filter_map
      (fun (k, _) ->
        if Hashtbl.mem base_keys k then None
        else
          Some
            {
              comp_metric = k;
              comp_direction = direction_of_metric k;
              comp_verdict = Added;
            })
      current
  in
  compared @ added

let failures comps =
  List.filter
    (fun c ->
      match c.comp_verdict with
      | Regression _ | Missing -> true
      | Pass | Added -> false)
    comps

let direction_str = function
  | Lower_better -> "lower"
  | Higher_better -> "higher"
  | Informational -> "info"

let render_report ~threshold comps =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "bench-compare (threshold %.0f%%)\n%-48s %-7s %s\n"
       (threshold *. 100.0) "metric" "dir" "verdict");
  List.iter
    (fun c ->
      let verdict =
        match c.comp_verdict with
        | Pass -> "pass"
        | Added -> "added (not gated)"
        | Missing -> "MISSING from current"
        | Regression { base; cur; limit } ->
          Printf.sprintf "REGRESSION base=%g cur=%g limit=%g" base cur limit
      in
      Buffer.add_string buf
        (Printf.sprintf "%-48s %-7s %s\n" c.comp_metric
           (direction_str c.comp_direction)
           verdict))
    comps;
  let fails = failures comps in
  Buffer.add_string buf
    (if fails = [] then
       Printf.sprintf "OK: %d metrics compared, no regressions\n"
         (List.length comps)
     else
       Printf.sprintf "FAIL: %d of %d metrics regressed or missing\n"
         (List.length fails) (List.length comps));
  Buffer.contents buf
