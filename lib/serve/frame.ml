(* 4-byte big-endian length + payload.  Reading never raises on bad
   bytes: the accept loop feeds it whatever arrives on the socket,
   including garbage, and must get a structured verdict back. *)

let max_payload = 4 * 1024 * 1024
let header_len = 4

type error =
  | Truncated of { wanted : int; got : int }
  | Oversized of { length : int; limit : int }

let error_to_string = function
  | Truncated { wanted; got } ->
    Printf.sprintf "truncated frame: wanted %d bytes, got %d" wanted got
  | Oversized { length; limit } ->
    Printf.sprintf "oversized frame: length %d exceeds limit %d" length limit

let encode payload =
  let n = String.length payload in
  if n > max_payload then
    invalid_arg (Printf.sprintf "Frame.encode: payload %d > max %d" n max_payload);
  let b = Bytes.create (header_len + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b header_len n;
  Bytes.unsafe_to_string b

(* ------------------------------------------------------------------ *)
(* Sockets                                                             *)
(* ------------------------------------------------------------------ *)

(* A signal landing on a thread blocked here interrupts the call
   without ending the transfer: both loops retry EINTR. *)
let rec write_all fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len

let write_fd fd payload =
  let framed = encode payload in
  write_all fd (Bytes.unsafe_of_string framed) 0 (String.length framed)

(* Read exactly [len] bytes; [got] bytes short on EOF. *)
let read_exact fd len =
  let b = Bytes.create len in
  let rec go off =
    if off >= len then Ok (Bytes.unsafe_to_string b)
    else
      match Unix.read fd b off (len - off) with
      | 0 -> Error off
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_fd fd =
  match read_exact fd header_len with
  | Error 0 -> Error `Eof
  | Error got -> Error (`Error (Truncated { wanted = header_len; got }))
  | Ok header -> (
    let length = Int32.to_int (String.get_int32_be header 0) land 0xFFFFFFFF in
    if length > max_payload then
      Error (`Error (Oversized { length; limit = max_payload }))
    else
      match read_exact fd length with
      | Ok payload -> Ok payload
      | Error got ->
        Error (`Error (Truncated { wanted = header_len + length; got = header_len + got })))
