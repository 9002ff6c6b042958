type routing = Minimal | Valiant of int

type capability = { hw_collectives : bool; adaptive_routing : bool }

type shape =
  | Grid of { gdims : int array; torus : bool }
  | Fat_tree of { levels : int; arity : int }
  | Dragonfly of { groups : int; routers : int; ghosts : int; routing : routing }

(* [hdims] is the host-grid view: the real dimensions for grids, a
   near-square 2-D factorization of the host count otherwise. *)
type t = { shape : shape; hdims : int array }

let int_pow b e =
  let r = ref 1 in
  for _ = 1 to e do
    r := !r * b
  done;
  !r

(* Largest divisor of [n] not exceeding its square root, so the host
   view [rows x cols] is as square as the factorization allows. *)
let near_square n =
  let best = ref 1 in
  let d = ref 1 in
  while !d * !d <= n do
    if n mod !d = 0 then best := !d;
    incr d
  done;
  [| !best; n / !best |]

let make ?(torus = false) dims =
  if Array.length dims = 0 then invalid_arg "Topology.make: no dimensions";
  Array.iter (fun d -> if d <= 0 then invalid_arg "Topology.make: non-positive dim") dims;
  { shape = Grid { gdims = Array.copy dims; torus }; hdims = Array.copy dims }

let mesh2d ~p ~q = make [| p; q |]
let torus3d ~p ~q ~r = make ~torus:true [| p; q; r |]

let fat_tree ~levels ~arity =
  if levels < 1 then invalid_arg "Topology.fat_tree: levels < 1";
  if arity < 2 then invalid_arg "Topology.fat_tree: arity < 2";
  { shape = Fat_tree { levels; arity }; hdims = near_square (int_pow arity levels) }

let dragonfly ?(routing = Minimal) ~groups ~routers ~hosts () =
  if groups <= 0 || routers <= 0 || hosts <= 0 then
    invalid_arg "Topology.dragonfly: non-positive parameter";
  { shape = Dragonfly { groups; routers; ghosts = hosts; routing };
    hdims = near_square (groups * routers * hosts) }

let is_grid t = match t.shape with Grid _ -> true | _ -> false
let is_torus t = match t.shape with Grid g -> g.torus | _ -> false

let capability t =
  match t.shape with
  | Grid _ -> { hw_collectives = false; adaptive_routing = false }
  | Fat_tree _ -> { hw_collectives = true; adaptive_routing = false }
  | Dragonfly { routing = Valiant _; _ } ->
      { hw_collectives = false; adaptive_routing = true }
  | Dragonfly _ -> { hw_collectives = false; adaptive_routing = false }

let ndims t = Array.length t.hdims
let size t = Array.fold_left ( * ) 1 t.hdims
let dim t i = t.hdims.(i)
let dims t = Array.copy t.hdims

let nodes t =
  match t.shape with
  | Grid _ -> size t
  | Fat_tree { levels; arity } ->
      let n = ref (int_pow arity levels) in
      for j = 1 to levels do
        n := !n + int_pow arity (levels - j)
      done;
      !n
  | Dragonfly { groups; routers; ghosts; _ } ->
      (groups * routers * ghosts) + (groups * routers)

let rank_of t coords =
  if Array.length coords <> Array.length t.hdims then
    invalid_arg "Topology.rank_of: dimension mismatch";
  let r = ref 0 in
  for i = 0 to Array.length t.hdims - 1 do
    if coords.(i) < 0 || coords.(i) >= t.hdims.(i) then
      invalid_arg "Topology.rank_of: out of range";
    r := (!r * t.hdims.(i)) + coords.(i)
  done;
  !r

let coords_of t rank =
  if rank < 0 || rank >= size t then invalid_arg "Topology.coords_of: out of range";
  let n = Array.length t.hdims in
  let coords = Array.make n 0 in
  let r = ref rank in
  for i = n - 1 downto 0 do
    coords.(i) <- !r mod t.hdims.(i);
    r := !r / t.hdims.(i)
  done;
  coords

(* {1 Grids: dimension-order routing, Manhattan distances} *)

(* Step direction along dimension [d]: +1 or -1, taking the shorter
   way around on a torus. *)
let grid_step_dir t cur target d =
  let n = dim t d in
  let fwd = ((target - cur) mod n + n) mod n in
  if not (is_torus t) then if target > cur then 1 else -1
  else if fwd <= n - fwd then 1
  else -1

let grid_route t ~src ~dst =
  let cur = coords_of t src in
  let target = coords_of t dst in
  let hops = ref [] in
  for d = 0 to ndims t - 1 do
    while cur.(d) <> target.(d) do
      let from_rank = rank_of t cur in
      let n = dim t d in
      let dir = grid_step_dir t cur.(d) target.(d) d in
      cur.(d) <- ((cur.(d) + dir) mod n + n) mod n;
      let to_rank = rank_of t cur in
      hops := (from_rank, to_rank) :: !hops
    done
  done;
  List.rev !hops

(* Deterministic neighbour enumeration: dimensions in ascending order,
   +1 before -1, wrapping on a torus.  Fixing this order fixes the BFS
   tie-breaking, so detours are reproducible. *)
let grid_neighbors t r =
  let coords = coords_of t r in
  let acc = ref [] in
  for d = ndims t - 1 downto 0 do
    let n = dim t d in
    List.iter
      (fun dir ->
        let c = coords.(d) + dir in
        let c = if is_torus t then ((c mod n) + n) mod n else c in
        if c >= 0 && c < n && c <> coords.(d) then begin
          let coords' = Array.copy coords in
          coords'.(d) <- c;
          acc := rank_of t coords' :: !acc
        end)
      [ -1; 1 ]
  done;
  !acc

let grid_distance t ~src ~dst =
  let a = coords_of t src and b = coords_of t dst in
  let acc = ref 0 in
  Array.iteri
    (fun i x ->
      let d = abs (x - b.(i)) in
      let d = if is_torus t then min d (dim t i - d) else d in
      acc := !acc + d)
    a;
  !acc

(* {1 Fat trees}

   [arity^levels] hosts under a [levels]-tier switch tree.  Switches
   are numbered above the hosts, level 1 (leaves) first: switch
   [(l, i)] serves hosts [i*arity^l .. (i+1)*arity^l - 1].  Routing
   climbs to the least common ancestor and descends. *)

let ft_switch ~levels ~arity l i =
  let base = ref (int_pow arity levels) in
  for j = 1 to l - 1 do
    base := !base + int_pow arity (levels - j)
  done;
  !base + i

(* Lowest level at which src and dst share a switch. *)
let ft_lca ~arity src dst =
  let m = ref 1 in
  let s = ref (src / arity) and d = ref (dst / arity) in
  while !s <> !d do
    incr m;
    s := !s / arity;
    d := !d / arity
  done;
  !m

let ft_route ~levels ~arity ~src ~dst =
  if src = dst then []
  else begin
    let m = ft_lca ~arity src dst in
    let sw l h = ft_switch ~levels ~arity l (h / int_pow arity l) in
    let hops = ref [] in
    let cur = ref src in
    for l = 1 to m do
      let next = sw l src in
      hops := (!cur, next) :: !hops;
      cur := next
    done;
    for l = m - 1 downto 1 do
      let next = sw l dst in
      hops := (!cur, next) :: !hops;
      cur := next
    done;
    hops := (!cur, dst) :: !hops;
    List.rev !hops
  end

let ft_distance ~arity ~src ~dst = if src = dst then 0 else 2 * ft_lca ~arity src dst

let ft_links ~levels ~arity =
  let hosts = int_pow arity levels in
  let acc = ref [] in
  for h = hosts - 1 downto 0 do
    acc := ((h, ft_switch ~levels ~arity 1 (h / arity)), 1) :: !acc
  done;
  let up = ref [] in
  for l = 1 to levels - 1 do
    for i = 0 to int_pow arity (levels - l) - 1 do
      let a = ft_switch ~levels ~arity l i in
      let b = ft_switch ~levels ~arity (l + 1) (i / arity) in
      up := ((a, b), int_pow arity l) :: !up
    done
  done;
  !acc @ List.rev !up

(* {1 Dragonflies}

   [groups] groups of [routers] fully connected routers with [ghosts]
   hosts each; one global link of capacity [ghosts] per group pair,
   its endpoint inside group [p] toward group [q] fixed by
   [df_gateway].  Minimal routes take at most 5 hops
   (host, local, global, local, host); Valiant routing detours via a
   hashed intermediate group for at most 2 more. *)

let df_gateway ~routers p q = (if q > p then q - 1 else q) mod routers

let df_route ~groups ~routers ~ghosts ~routing ~src ~dst =
  if src = dst then []
  else begin
    let hosts = groups * routers * ghosts in
    let grp x = x / (routers * ghosts) in
    let rid g r = hosts + (g * routers) + r in
    let router x = rid (grp x) (x / ghosts mod routers) in
    let rs = router src and rd = router dst in
    let p = grp src and q = grp dst in
    let hops = ref [ (src, rs) ] in
    let cur = ref rs in
    let go_to_group dst_grp =
      let cg = (!cur - hosts) / routers in
      if cg <> dst_grp then begin
        let gw = rid cg (df_gateway ~routers cg dst_grp) in
        if !cur <> gw then begin
          hops := (!cur, gw) :: !hops;
          cur := gw
        end;
        let entry = rid dst_grp (df_gateway ~routers dst_grp cg) in
        hops := (!cur, entry) :: !hops;
        cur := entry
      end
    in
    (match routing with
    | Valiant seed when p <> q && groups > 2 ->
        (* Intermediate group from a pure hash of (seed, src, dst):
           load-spreading, yet the same message always takes the same
           detour. *)
        let u = Backoff.hash_unit ~seed [ src; dst ] in
        let slot = int_of_float (u *. float_of_int (groups - 2)) in
        let v = ref 0 and seen = ref 0 in
        for g = 0 to groups - 1 do
          if g <> p && g <> q then begin
            if !seen = slot then v := g;
            incr seen
          end
        done;
        go_to_group !v;
        go_to_group q
    | _ -> go_to_group q);
    if !cur <> rd then begin
      hops := (!cur, rd) :: !hops;
      cur := rd
    end;
    hops := (!cur, dst) :: !hops;
    List.rev !hops
  end

let df_distance ~groups:_ ~routers ~ghosts ~src ~dst =
  if src = dst then 0
  else begin
    let grp x = x / (routers * ghosts) in
    let rtr x = x / ghosts mod routers in
    let p = grp src and q = grp dst in
    if p = q then if rtr src = rtr dst then 2 else 3
    else
      2 + 1
      + (if rtr src <> df_gateway ~routers p q then 1 else 0)
      + if rtr dst <> df_gateway ~routers q p then 1 else 0
  end

let df_links ~groups ~routers ~ghosts =
  let hosts = groups * routers * ghosts in
  let rid g r = hosts + (g * routers) + r in
  let host_links = ref [] in
  for h = hosts - 1 downto 0 do
    host_links := ((h, rid (h / (routers * ghosts)) (h / ghosts mod routers)), 1) :: !host_links
  done;
  let local = ref [] in
  for g = groups - 1 downto 0 do
    for a = routers - 1 downto 0 do
      for b = routers - 1 downto a + 1 do
        local := ((rid g a, rid g b), 1) :: !local
      done
    done
  done;
  let global = ref [] in
  for p = groups - 1 downto 0 do
    for q = groups - 1 downto p + 1 do
      global :=
        ((rid p (df_gateway ~routers p q), rid q (df_gateway ~routers q p)), ghosts)
        :: !global
    done
  done;
  !host_links @ !local @ !global

(* {1 Dispatch} *)

let links t =
  match t.shape with
  | Grid _ ->
      let n = size t in
      let acc = ref [] in
      for r = n - 1 downto 0 do
        List.iter
          (fun nb -> if r < nb then acc := ((r, nb), 1) :: !acc)
          (grid_neighbors t r)
      done;
      List.sort compare !acc
  | Fat_tree { levels; arity } -> List.sort compare (ft_links ~levels ~arity)
  | Dragonfly { groups; routers; ghosts; _ } ->
      List.sort compare (df_links ~groups ~routers ~ghosts)

let link_capacity t (a, b) =
  match t.shape with
  | Grid _ -> 1
  | Fat_tree { levels; arity } ->
      let hosts = int_pow arity levels in
      let level v =
        if v < hosts then 0
        else begin
          let l = ref 1 and base = ref hosts in
          while v >= !base + int_pow arity (levels - !l) do
            base := !base + int_pow arity (levels - !l);
            incr l
          done;
          !l
        end
      in
      int_pow arity (min (level a) (level b))
  | Dragonfly { groups; routers; ghosts; _ } ->
      let hosts = groups * routers * ghosts in
      if a >= hosts && b >= hosts && (a - hosts) / routers <> (b - hosts) / routers
      then ghosts
      else 1

let route t ~src ~dst =
  match t.shape with
  | Grid _ -> grid_route t ~src ~dst
  | Fat_tree { levels; arity } -> ft_route ~levels ~arity ~src ~dst
  | Dragonfly { groups; routers; ghosts; routing } ->
      df_route ~groups ~routers ~ghosts ~routing ~src ~dst

let distance t ~src ~dst =
  match t.shape with
  | Grid _ -> grid_distance t ~src ~dst
  | Fat_tree { arity; _ } -> ft_distance ~arity ~src ~dst
  | Dragonfly { groups; routers; ghosts; _ } ->
      df_distance ~groups ~routers ~ghosts ~src ~dst

let diameter t =
  match t.shape with
  | Grid { gdims; torus } ->
      if torus then Array.fold_left (fun acc d -> acc + (d / 2)) 0 gdims
      else Array.fold_left (fun acc d -> acc + d - 1) 0 gdims
  | Fat_tree { levels; _ } -> 2 * levels
  | Dragonfly { groups; routers; ghosts; _ } ->
      if groups * routers * ghosts = 1 then 0
      else if groups = 1 then if routers = 1 then 2 else 3
      else if routers = 1 then 3
      else 5

let route_avoiding ~down t ~src ~dst =
  if src = dst then Some []
  else begin
    let deterministic = route t ~src ~dst in
    if not (List.exists down deterministic) then Some deterministic
    else begin
      (* the deterministic route is broken: breadth-first detour over
         the surviving links, shortest path with fixed tie-breaking *)
      let n = nodes t in
      let adjacency =
        match t.shape with
        | Grid _ -> grid_neighbors t
        | _ ->
            let adj = Array.make n [] in
            List.iter
              (fun ((a, b), _) ->
                adj.(a) <- b :: adj.(a);
                adj.(b) <- a :: adj.(b))
              (links t);
            Array.iteri (fun i l -> adj.(i) <- List.sort compare l) adj;
            fun r -> adj.(r)
      in
      let parent = Array.make n (-1) in
      let visited = Array.make n false in
      visited.(src) <- true;
      let q = Queue.create () in
      Queue.push src q;
      let found = ref false in
      while (not !found) && not (Queue.is_empty q) do
        let cur = Queue.pop q in
        if cur = dst then found := true
        else
          List.iter
            (fun next ->
              if (not visited.(next)) && not (down (cur, next)) then begin
                visited.(next) <- true;
                parent.(next) <- cur;
                Queue.push next q
              end)
            (adjacency cur)
      done;
      if not !found then None
      else begin
        let rec build acc cur =
          if cur = src then acc else build ((parent.(cur), cur) :: acc) parent.(cur)
        in
        Some (build [] dst)
      end
    end
  end

(* {1 Spec grammar} *)

let to_string t =
  match t.shape with
  | Grid { gdims; torus } ->
      Printf.sprintf "%s:%s"
        (if torus then "torus" else "mesh")
        (String.concat "x" (Array.to_list (Array.map string_of_int gdims)))
  | Fat_tree { levels; arity } -> Printf.sprintf "fattree:%d:%d" levels arity
  | Dragonfly { groups; routers; ghosts; routing } -> (
      let base = Printf.sprintf "dragonfly:%d:%d:%d" groups routers ghosts in
      match routing with
      | Minimal -> base
      | Valiant 0 -> base ^ ":adaptive"
      | Valiant seed -> Printf.sprintf "%s:adaptive:%d" base seed)

let of_string spec =
  let fail () =
    Error
      (Printf.sprintf
         "bad topology spec %S: expected mesh:PxQ, torus:PxQ, fattree:LEVELS:ARITY \
          or dragonfly:GROUPS:ROUTERS:HOSTS[:adaptive[:SEED]]"
         spec)
  in
  let pos_int s = match int_of_string_opt s with Some n when n > 0 -> Some n | _ -> None in
  match String.split_on_char ':' (String.lowercase_ascii (String.trim spec)) with
  | [ kind; ds ] when kind = "mesh" || kind = "torus" -> (
      let parts = String.split_on_char 'x' ds in
      let dims = List.filter_map pos_int parts in
      if parts = [] || List.length dims <> List.length parts then fail ()
      else
        match make ~torus:(kind = "torus") (Array.of_list dims) with
        | t -> Ok t
        | exception Invalid_argument _ -> fail ())
  | [ "fattree"; l; k ] -> (
      match (pos_int l, pos_int k) with
      | Some levels, Some arity when arity >= 2 -> Ok (fat_tree ~levels ~arity)
      | _ -> fail ())
  | "dragonfly" :: g :: r :: h :: rest -> (
      match (pos_int g, pos_int r, pos_int h) with
      | Some groups, Some routers, Some hosts -> (
          let df routing = Ok (dragonfly ~routing ~groups ~routers ~hosts ()) in
          match rest with
          | [] -> df Minimal
          | [ "adaptive" ] -> df (Valiant 0)
          | [ "adaptive"; seed ] -> (
              match int_of_string_opt seed with
              | Some s when s >= 0 -> df (Valiant s)
              | _ -> fail ())
          | _ -> fail ())
      | _ -> fail ())
  | _ -> fail ()
