type t = { fd : Unix.file_descr }

let resolve host =
  match Unix.inet_addr_of_string host with
  | ip -> Ok ip
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> Error ("no address for " ^ host)
    | h -> Ok h.Unix.h_addr_list.(0)
    | exception Not_found -> Error ("unknown host " ^ host))

let connect addr =
  let go domain sockaddr =
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd sockaddr with
    | () -> Ok { fd }
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "connect %s: %s" (Wire.addr_to_string addr)
           (Unix.error_message e))
  in
  match addr with
  | Wire.Unix_sock path -> go Unix.PF_UNIX (Unix.ADDR_UNIX path)
  | Wire.Tcp (host, port) -> (
    match resolve host with
    | Error _ as e -> e
    | Ok ip -> go Unix.PF_INET (Unix.ADDR_INET (ip, port)))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let rpc t payload =
  match Frame.write_fd t.fd payload with
  | exception Unix.Unix_error (e, _, _) ->
    Error ("send: " ^ Unix.error_message e)
  | () -> (
    match Frame.read_fd t.fd with
    | Ok resp -> Ok resp
    | Error `Eof -> Error "connection closed by server"
    | Error (`Error e) -> Error (Frame.error_to_string e)
    | exception Unix.Unix_error (e, _, _) ->
      Error ("recv: " ^ Unix.error_message e))

let request t req =
  Result.bind (rpc t (Wire.encode_request req)) Wire.decode_response

let default_backoff ~seed =
  Machine.Backoff.make ~jitter:0.5 ~seed ~base:50 ~cap:1000

let attempts = 5

let call ~backoff addr req =
  let rec go attempt =
    let outcome =
      match connect addr with
      | Error _ as e -> e
      | Ok conn ->
        Fun.protect ~finally:(fun () -> close conn) (fun () -> request conn req)
    in
    let retryable =
      match outcome with
      | Error _ | Ok (Wire.Shed _) | Ok (Wire.Timeout _) -> true
      | Ok (Wire.Answer _) | Ok (Wire.Failed _) -> false
    in
    if retryable && attempt < attempts then begin
      Unix.sleepf
        (float_of_int (Machine.Backoff.delay backoff ~attempt) /. 1000.0);
      go (attempt + 1)
    end
    else outcome
  in
  go 1
