(* Capped exponential backoff, shared by Eventsim retransmission and
   the serve client's retry loop.  [exp_delay] is moved verbatim from
   Fault.backoff so existing simulator outputs stay byte-identical. *)

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* top 53 bits, uniform in [0, 1) *)
let to_unit_float z =
  Int64.to_float (Int64.shift_right_logical z 11) *. (1.0 /. 9007199254740992.0)

let hash_unit ~seed ks =
  let mix acc k =
    mix64 (Int64.add (Int64.mul acc 0x100000001B3L) (Int64.of_int k))
  in
  to_unit_float (mix64 (List.fold_left mix (Int64.of_int seed) ks))

let exp_delay ~base ~cap ~attempt =
  let attempt = max 1 attempt in
  let rec go acc n = if n <= 1 || acc >= cap then acc else go (acc * 2) (n - 1) in
  min (go base attempt) cap

type t = { base : int; cap : int; jitter : float; seed : int }

let make ~jitter ~seed ~base ~cap =
  if base <= 0 then invalid_arg "Backoff.make: base <= 0";
  if cap < base then invalid_arg "Backoff.make: cap < base";
  if not (jitter >= 0.0 && jitter <= 1.0) then
    invalid_arg "Backoff.make: jitter outside [0, 1]";
  { base; cap; jitter; seed }

let delay t ~attempt =
  let d = exp_delay ~base:t.base ~cap:t.cap ~attempt in
  if t.jitter = 0.0 then d
  else begin
    let u = hash_unit ~seed:t.seed [ max 1 attempt ] in
    max 1 (int_of_float (float_of_int d *. (1.0 -. (t.jitter *. u))))
  end
