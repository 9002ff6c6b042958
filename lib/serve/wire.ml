(* Text payloads.  The encoding is canonical — fixed field order,
   optional fields omitted — so request equality is string equality,
   which is all the coalescing table needs. *)

let version_line = "resopt-serve/1"

type addr = Unix_sock of string | Tcp of string * int

let addr_to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

type op = Run | Ping | Stats

type request = {
  op : op;
  workload : string;
  m : int;
  faults : string option;
  fseed : int;
  map : string option;
  mseed : int;
  deadline_ms : int option;
}

(* A field the answer does not read does not enter the key.  [map=none]
   asks for the fixed embedding, exactly like omitting the field, so it
   is dropped with its seed; only the [search] placement reads [mseed],
   so every other kind zeroes it.  Equal answers then share one key,
   one memo entry and one coalesced solve. *)
let normalise r =
  match r.map with
  | None | Some "none" -> { r with map = None; mseed = 0 }
  | Some k when Mapping.kind_of_string k = Some Mapping.Search -> r
  | Some _ -> { r with mseed = 0 }

let run ?(m = 2) ?faults ?(fseed = 0) ?map ?(mseed = 0) workload =
  normalise { op = Run; workload; m; faults; fseed; map; mseed; deadline_ms = None }

let blank op =
  { op; workload = ""; m = 2; faults = None; fseed = 0; map = None; mseed = 0;
    deadline_ms = None }

let ping = blank Ping
let stats = blank Stats

let op_to_string = function Run -> "run" | Ping -> "ping" | Stats -> "stats"

let encode_request r =
  let b = Buffer.create 128 in
  let line k v = Buffer.add_string b (k ^ "=" ^ v ^ "\n") in
  Buffer.add_string b (version_line ^ "\n");
  line "op" (op_to_string r.op);
  if r.workload <> "" then line "workload" r.workload;
  line "m" (string_of_int r.m);
  (match r.faults with
  | Some s ->
    line "faults" s;
    line "fseed" (string_of_int r.fseed)
  | None -> ());
  (match r.map with
  | Some s ->
    line "map" s;
    line "mseed" (string_of_int r.mseed)
  | None -> ());
  (match r.deadline_ms with
  | Some d -> line "deadline_ms" (string_of_int d)
  | None -> ());
  Buffer.contents b

let solve_key r = encode_request { r with deadline_ms = None }

(* The fault seed is printed into an answer but read by none of its
   prices (Answer stamps it in last), so the solve itself is shared
   across seeds. *)
let work_key r = solve_key { r with fseed = 0 }

let decode_request s =
  match String.split_on_char '\n' s with
  | v :: rest when v = version_line ->
    let int_of k v =
      match int_of_string_opt v with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "bad integer for %s: %s" k v)
    in
    let rec go acc = function
      | [] | [ "" ] -> Ok acc
      | l :: tl -> (
        match String.index_opt l '=' with
        | None -> Error (Printf.sprintf "malformed line: %s" l)
        | Some i -> (
          let k = String.sub l 0 i in
          let v = String.sub l (i + 1) (String.length l - i - 1) in
          let ( let* ) = Result.bind in
          match k with
          | "op" -> (
            match v with
            | "run" -> go { acc with op = Run } tl
            | "ping" -> go { acc with op = Ping } tl
            | "stats" -> go { acc with op = Stats } tl
            | _ -> Error ("unknown op: " ^ v))
          | "workload" -> go { acc with workload = v } tl
          | "m" ->
            let* n = int_of k v in
            go { acc with m = n } tl
          | "faults" -> go { acc with faults = Some v } tl
          | "fseed" ->
            let* n = int_of k v in
            go { acc with fseed = n } tl
          | "map" -> go { acc with map = Some v } tl
          | "mseed" ->
            let* n = int_of k v in
            go { acc with mseed = n } tl
          | "deadline_ms" ->
            let* n = int_of k v in
            go { acc with deadline_ms = Some n } tl
          | _ -> Error ("unknown key: " ^ k)))
    in
    Result.bind (go (blank Ping) rest) (fun r ->
        match r.op with
        | Run when r.workload = "" -> Error "run request without workload"
        | _ when r.m < 1 -> Error (Printf.sprintf "bad m: %d (expected >= 1)" r.m)
        | _ -> Ok (normalise r))
  | _ -> Error "not a resopt-serve/1 request"

type response =
  | Answer of string
  | Shed of string
  | Timeout of string
  | Failed of string

let status = function
  | Answer _ -> "ok"
  | Shed _ -> "shed"
  | Timeout _ -> "timeout"
  | Failed _ -> "error"

let body = function Answer s | Shed s | Timeout s | Failed s -> s
let encode_response r = status r ^ "\n" ^ body r

let decode_response s =
  match String.index_opt s '\n' with
  | None -> Error "response without status line"
  | Some i -> (
    let st = String.sub s 0 i in
    let b = String.sub s (i + 1) (String.length s - i - 1) in
    match st with
    | "ok" -> Ok (Answer b)
    | "shed" -> Ok (Shed b)
    | "timeout" -> Ok (Timeout b)
    | "error" -> Ok (Failed b)
    | _ -> Error ("unknown response status: " ^ st))
