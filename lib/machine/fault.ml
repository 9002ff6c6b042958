(* Deterministic fault injection: specs, a splitmix64 generator, and
   the counter-based drop decision the simulators evaluate. *)

module Rng = struct
  type t = { mutable state : int64 }

  let golden = 0x9E3779B97F4A7C15L

  (* the splitmix64 finalizer lives in Backoff so the retry-delay
     helper and this generator share one arithmetic *)
  let mix64 = Backoff.mix64

  let make seed = { state = Int64.of_int seed }

  let next t =
    t.state <- Int64.add t.state golden;
    mix64 t.state

  let to_unit_float = Backoff.to_unit_float

  let float t = to_unit_float (next t)

  let int t bound =
    if bound <= 0 then invalid_arg "Fault.Rng.int: bound <= 0";
    Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))
end

type spec =
  | Link_down of { a : int; b : int; from_cycle : int; until_cycle : int }
  | Flaky of { link : (int * int) option; prob : float }
  | Degraded of { link : (int * int) option; factor : float }
  | Dead_node of int

type t = { specs : spec list; seed : int }

(* The retransmission protocol: cycles before the first retransmission,
   the cap its doubling stops at, and the failed attempts before a drop. *)
let ack_timeout = 128
let backoff_cap = 4096
let max_retries = 8

let none = { specs = []; seed = 0 }

let is_none t = t.specs = []

let check_spec = function
  | Link_down { from_cycle; until_cycle; _ } ->
    if from_cycle < 0 || until_cycle < from_cycle then
      invalid_arg "Fault.make: bad down interval"
  | Flaky { prob; _ } ->
    if not (prob >= 0.0 && prob <= 1.0) then
      invalid_arg "Fault.make: drop probability outside [0, 1]"
  | Degraded { factor; _ } ->
    if not (factor > 0.0 && factor <= 1.0) then
      invalid_arg "Fault.make: bandwidth factor outside (0, 1]"
  | Dead_node r -> if r < 0 then invalid_arg "Fault.make: negative rank"

let make ?(seed = 0) specs =
  List.iter check_spec specs;
  { specs; seed }

let specs t = t.specs
let seed t = t.seed

(* Physical links are undirected as far as faults go: a broken cable
   kills both directions. *)
let link_matches spec_link (x, y) =
  match spec_link with
  | None -> true
  | Some (a, b) -> (a = x && b = y) || (a = y && b = x)

let node_dead t r =
  t.specs <> []
  && List.exists (function Dead_node d -> d = r | _ -> false) t.specs

let severed_spec = function
  | Link_down { from_cycle = 0; until_cycle; _ } when until_cycle = max_int -> true
  | _ -> false

(* Permanently unusable (whole-run [Link_down], or an endpoint is
   dead): the links routing must avoid.  Direction-agnostic. *)
let link_severed t (x, y) =
  t.specs <> []
  && (node_dead t x || node_dead t y
     || List.exists
          (function
            | Link_down { a; b; _ } as s ->
              severed_spec s && link_matches (Some (a, b)) (x, y)
            | _ -> false)
          t.specs)

let has_severed t =
  List.exists
    (function Dead_node _ -> true | s -> severed_spec s)
    t.specs

let link_down t ~cycle (x, y) =
  link_severed t (x, y)
  || List.exists
       (function
         | Link_down { a; b; from_cycle; until_cycle } ->
           link_matches (Some (a, b)) (x, y)
           && cycle >= from_cycle && cycle < until_cycle
         | _ -> false)
       t.specs

let drop_prob t l =
  if t.specs = [] then 0.0
  else
    let miss =
      List.fold_left
        (fun acc -> function
          | Flaky { link; prob } when link_matches link l -> acc *. (1.0 -. prob)
          | _ -> acc)
        1.0 t.specs
    in
    1.0 -. miss

let bandwidth_factor t l =
  if t.specs = [] then 1.0
  else
    List.fold_left
      (fun acc -> function
        | Degraded { link; factor } when link_matches link l -> acc *. factor
        | _ -> acc)
      1.0 t.specs

(* Counter-based decision: hash the identifying tuple through the
   splitmix finalizer.  No shared state, so evaluation order (and
   parallel scheduling) cannot change the schedule. *)
let drops t ~packet ~hop ~attempt ~link =
  (not (is_none t))
  &&
  let p = drop_prob t link in
  p > 0.0
  && (p >= 1.0 || Backoff.hash_unit ~seed:t.seed [ packet; hop; attempt ] < p)

let backoff ~attempt = Backoff.exp_delay ~base:ack_timeout ~cap:backoff_cap ~attempt

let expected_transmissions t l =
  let p = drop_prob t l in
  let cap = float_of_int (max_retries + 1) in
  if p <= 0.0 then 1.0 else if p >= 1.0 then cap else Float.min (1.0 /. (1.0 -. p)) cap

let uniform_slowdown t =
  if is_none t then 1.0
  else
    let p =
      1.0
      -. List.fold_left
           (fun acc -> function
             | Flaky { link = None; prob } -> acc *. (1.0 -. prob)
             | _ -> acc)
           1.0 t.specs
    in
    let factor =
      List.fold_left
        (fun acc -> function
          | Degraded { link = None; factor } -> acc *. factor
          | _ -> acc)
        1.0 t.specs
    in
    let cap = float_of_int (max_retries + 1) in
    let retrans =
      if p <= 0.0 then 1.0 else if p >= 1.0 then cap else Float.min (1.0 /. (1.0 -. p)) cap
    in
    retrans /. factor

let route t topo ~src ~dst =
  if node_dead t src || node_dead t dst then None
  else if has_severed t then
    Topology.route_avoiding ~down:(link_severed t) topo ~src ~dst
  else Some (Topology.route topo ~src ~dst)

(* ------------------------------------------------------------------ *)
(* Grammar                                                             *)
(* ------------------------------------------------------------------ *)

let parse_link s =
  match String.split_on_char '-' s with
  | [ a; b ] -> (
    match (int_of_string_opt a, int_of_string_opt b) with
    | Some a, Some b when a >= 0 && b >= 0 -> Some (a, b)
    | _ -> None)
  | _ -> None

let parse_item item =
  let fail () = Error (Printf.sprintf "bad fault item %S" item) in
  match String.split_on_char ':' (String.trim item) with
  | [ "flaky"; p ] -> (
    match float_of_string_opt p with
    | Some prob when prob >= 0.0 && prob <= 1.0 -> Ok (Flaky { link = None; prob })
    | _ -> fail ())
  | [ "flaky"; l; p ] -> (
    match (parse_link l, float_of_string_opt p) with
    | Some link, Some prob when prob >= 0.0 && prob <= 1.0 ->
      Ok (Flaky { link = Some link; prob })
    | _ -> fail ())
  | [ "down"; l ] -> (
    match parse_link l with
    | Some (a, b) -> Ok (Link_down { a; b; from_cycle = 0; until_cycle = max_int })
    | None -> fail ())
  | [ "down"; l; iv ] -> (
    match (parse_link l, parse_link iv) with
    | Some (a, b), Some (from_cycle, until_cycle) when from_cycle <= until_cycle ->
      Ok (Link_down { a; b; from_cycle; until_cycle })
    | _ -> fail ())
  | [ "degrade"; f ] -> (
    match float_of_string_opt f with
    | Some factor when factor > 0.0 && factor <= 1.0 ->
      Ok (Degraded { link = None; factor })
    | _ -> fail ())
  | [ "degrade"; l; f ] -> (
    match (parse_link l, float_of_string_opt f) with
    | Some link, Some factor when factor > 0.0 && factor <= 1.0 ->
      Ok (Degraded { link = Some link; factor })
    | _ -> fail ())
  | [ "dead"; r ] -> (
    match int_of_string_opt r with
    | Some rank when rank >= 0 -> Ok (Dead_node rank)
    | _ -> fail ())
  | _ -> fail ()

let parse s =
  let items =
    String.split_on_char ';' s
    |> List.concat_map (String.split_on_char ',')
    |> List.map String.trim
    |> List.filter (fun it -> it <> "")
  in
  if items = [] then Error "empty fault spec"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | it :: rest -> (
        match parse_item it with Ok s -> go (s :: acc) rest | Error e -> Error e)
    in
    go [] items

let spec_to_string = function
  | Link_down { a; b; from_cycle = 0; until_cycle } when until_cycle = max_int ->
    Printf.sprintf "down:%d-%d" a b
  | Link_down { a; b; from_cycle; until_cycle } ->
    Printf.sprintf "down:%d-%d:%d-%d" a b from_cycle until_cycle
  | Flaky { link = None; prob } -> Printf.sprintf "flaky:%g" prob
  | Flaky { link = Some (a, b); prob } -> Printf.sprintf "flaky:%d-%d:%g" a b prob
  | Degraded { link = None; factor } -> Printf.sprintf "degrade:%g" factor
  | Degraded { link = Some (a, b); factor } ->
    Printf.sprintf "degrade:%d-%d:%g" a b factor
  | Dead_node r -> Printf.sprintf "dead:%d" r

let to_string specs = String.concat ";" (List.map spec_to_string specs)

let label t = if is_none t then "" else to_string t.specs

(* ------------------------------------------------------------------ *)
(* Random schedules for chaos testing                                  *)
(* ------------------------------------------------------------------ *)

let random_link rng topo =
  if not (Topology.is_grid topo) then begin
    (* switched topologies: a uniform draw over the link list (hosts,
       switch fabric and global links alike) *)
    match Topology.links topo with
    | [] -> None
    | links -> Some (fst (List.nth links (Rng.int rng (List.length links))))
  end
  else
  let n = Topology.size topo in
  let a = Rng.int rng n in
  let coords = Topology.coords_of topo a in
  let d = Rng.int rng (Topology.ndims topo) in
  let dir = if Rng.int rng 2 = 0 then 1 else -1 in
  let size = Topology.dim topo d in
  let c = coords.(d) + dir in
  let c =
    if Topology.is_torus topo then ((c mod size) + size) mod size
    else if c < 0 || c >= size then coords.(d) - dir
    else c
  in
  if c < 0 || c >= size || c = coords.(d) then None
  else begin
    let coords' = Array.copy coords in
    coords'.(d) <- c;
    Some (a, Topology.rank_of topo coords')
  end

let random_specs rng topo =
  let acc = ref [] in
  (* up to two broken links, permanent or an interval outage *)
  let n_down = Rng.int rng 3 in
  for _ = 1 to n_down do
    match random_link rng topo with
    | None -> ()
    | Some (a, b) ->
      let spec =
        if Rng.int rng 2 = 0 then
          Link_down { a; b; from_cycle = 0; until_cycle = max_int }
        else begin
          let from_cycle = Rng.int rng 2000 in
          let len = 1 + Rng.int rng 4000 in
          Link_down { a; b; from_cycle; until_cycle = from_cycle + len }
        end
      in
      acc := spec :: !acc
  done;
  if Rng.int rng 10 < 3 then
    acc := Dead_node (Rng.int rng (Topology.size topo)) :: !acc;
  if Rng.int rng 2 = 0 then
    acc := Flaky { link = None; prob = Rng.float rng *. 0.25 } :: !acc;
  if Rng.int rng 10 < 3 then
    acc := Degraded { link = None; factor = 0.25 +. (Rng.float rng *. 0.75) } :: !acc;
  List.rev !acc

let pp ppf t =
  if is_none t then Format.fprintf ppf "<no faults>"
  else Format.fprintf ppf "%s (seed %d)" (to_string t.specs) t.seed
