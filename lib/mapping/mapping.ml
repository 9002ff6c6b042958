(* Topology-aware process placement as a sparse quadratic assignment:
   given the residual communication-volume graph (bytes per process
   pair) and the physical topology, find a permutation of node
   placements minimizing hop-bytes

       sum over (p, q) of volume(p, q) * dist(place p, place q).

   The construction follows the VieM / Schulz-Traff playbook: a
   greedy-growing initial placement (heaviest-communicating unplaced
   process next, on the free node closest to its placed partners),
   then pairwise-swap hill climbing restarted from seeded random
   permutations.  Everything is deterministic for a given seed — ties
   break on the lowest index, restarts draw from Fault's splitmix64
   streams, and the cross-restart winner is the (cost, permutation)
   lexicographic minimum, so the answer does not depend on the order
   the restarts run in. *)

type t = int array

type kind = Identity | Greedy | Search

type spec = { kind : kind; seed : int }

(* Only [Search] reads a seed: the other kinds get seed 0, so every
   greedy spec is one spec (one memo key, one cached placement). *)
let spec ?(seed = 0) kind =
  match kind with
  | Search -> { kind; seed }
  | Identity | Greedy -> { kind; seed = 0 }

let kind_to_string = function
  | Identity -> "none"
  | Greedy -> "greedy"
  | Search -> "search"

let kind_of_string = function
  | "none" | "identity" -> Some Identity
  | "greedy" -> Some Greedy
  | "search" -> Some Search
  | _ -> None

let identity n = Array.init n Fun.id

(* Pairwise hop distances of the topology, symmetric by construction:
   the compiled topology's shared table of [Topology.distance], the
   minimal-route hop count of the topology at hand — Manhattan on
   grids, up/down depth on fat trees, group hops on dragonflies — so
   placement search optimizes real distances instead of assuming every
   machine is a grid.  Read-only: every search shares it. *)
let dist_table topo = Machine.Compiled.distances (Machine.Compiled.get topo)

(* Symmetric weight matrix of the volume graph: w.(p).(q) = bytes
   exchanged between p and q in either direction, diagonal zeroed
   (local volume has no distance cost).  Out-of-range endpoints (a
   graph wider than the topology) are ignored. *)
let weight_matrix n vol =
  let w = Array.make_matrix n n 0 in
  List.iter
    (fun ((p, q), b) ->
      if p <> q && p >= 0 && p < n && q >= 0 && q < n then begin
        w.(p).(q) <- w.(p).(q) + b;
        w.(q).(p) <- w.(q).(p) + b
      end)
    vol;
  w

let cost_w dist w perm =
  let n = Array.length perm in
  let acc = ref 0 in
  for p = 0 to n - 1 do
    for q = p + 1 to n - 1 do
      if w.(p).(q) <> 0 then acc := !acc + (w.(p).(q) * dist.(perm.(p)).(perm.(q)))
    done
  done;
  !acc

let hop_bytes topo vol perm =
  let dist = dist_table topo in
  cost_w dist (weight_matrix (Array.length perm) vol) perm

(* ------------------------------------------------------------------ *)
(* Greedy growing                                                      *)
(* ------------------------------------------------------------------ *)

(* Place the heaviest process first on the most central node, then
   repeatedly place the unplaced process with the largest volume to
   already-placed ones on the free node minimizing its partial
   hop-bytes.  Every argmax/argmin scan keeps the first (lowest-index)
   extremum, so the result is deterministic.

   O(n^2 + n m) for n processes and m communicating pairs, O(n^2) on
   the bounded-degree graphs residual flows leave: each unplaced
   process's volume to the placed region is a running sum ([conn]),
   raised per placement, and a candidate node is scored over the
   chosen process's placed partners only. *)
let grow dist w n =
  let perm = Array.make n (-1) in
  let placed = Array.make n false (* process placed? *) in
  let used = Array.make n false (* node occupied? *) in
  let conn = Array.make n 0 (* volume to the placed processes *) in
  let strength = Array.map (Array.fold_left ( + ) 0) w in
  let first_proc =
    let best = ref 0 in
    for p = 1 to n - 1 do
      if strength.(p) > strength.(!best) then best := p
    done;
    !best
  in
  let central =
    let best = ref 0 and best_d = ref max_int in
    for node = 0 to n - 1 do
      let d = Array.fold_left ( + ) 0 dist.(node) in
      if d < !best_d then begin
        best := node;
        best_d := d
      end
    done;
    !best
  in
  let place p node =
    perm.(p) <- node;
    placed.(p) <- true;
    used.(node) <- true;
    let wp = w.(p) in
    for q = 0 to n - 1 do
      conn.(q) <- conn.(q) + wp.(q)
    done
  in
  place first_proc central;
  let partners = Array.make n 0 and weights = Array.make n 0 in
  for _ = 2 to n do
    let next = ref (-1) and next_conn = ref (-1) in
    for p = 0 to n - 1 do
      if (not placed.(p)) && conn.(p) > !next_conn then begin
        next := p;
        next_conn := conn.(p)
      end
    done;
    let p = !next in
    let k = ref 0 in
    for q = 0 to n - 1 do
      if placed.(q) && w.(p).(q) <> 0 then begin
        partners.(!k) <- perm.(q);
        weights.(!k) <- w.(p).(q);
        incr k
      end
    done;
    let best_node = ref (-1) and best_cost = ref max_int in
    for node = 0 to n - 1 do
      if not used.(node) then begin
        let dn = dist.(node) in
        let c = ref 0 in
        for i = 0 to !k - 1 do
          c := !c + (weights.(i) * dn.(partners.(i)))
        done;
        if !c < !best_cost then begin
          best_node := node;
          best_cost := !c
        end
      end
    done;
    place p !best_node
  done;
  perm

let greedy topo vol =
  let n = Machine.Topology.size topo in
  let dist = dist_table topo in
  let w = weight_matrix n vol in
  let grown = grow dist w n in
  let id = identity n in
  (* growing is a heuristic: never hand back something worse than
     leaving the processes where they are *)
  if cost_w dist w grown <= cost_w dist w id then grown else id

(* ------------------------------------------------------------------ *)
(* Local search                                                        *)
(* ------------------------------------------------------------------ *)

(* Cost change of swapping the placements of processes [a] and [b]:
   only their edges to third processes move, and the (a, b) edge keeps
   its (symmetric) length.  O(n) instead of re-pricing the whole
   permutation. *)
let swap_delta dist w perm a b =
  let n = Array.length perm in
  let pa = perm.(a) and pb = perm.(b) in
  let d = ref 0 in
  for c = 0 to n - 1 do
    if c <> a && c <> b then begin
      let pc = perm.(c) in
      let wd = w.(a).(c) - w.(b).(c) in
      if wd <> 0 then d := !d + (wd * (dist.(pb).(pc) - dist.(pa).(pc)))
    end
  done;
  !d

(* Best-improvement hill climbing over all pairs, first-lowest pair on
   delta ties; stops at a local optimum.  Mutates and returns [perm]. *)
let climb dist w perm =
  let n = Array.length perm in
  let improved = ref true in
  while !improved do
    improved := false;
    let best_a = ref 0 and best_b = ref 0 and best_d = ref 0 in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        let d = swap_delta dist w perm a b in
        if d < !best_d then begin
          best_a := a;
          best_b := b;
          best_d := d
        end
      done
    done;
    if !best_d < 0 then begin
      let tmp = perm.(!best_a) in
      perm.(!best_a) <- perm.(!best_b);
      perm.(!best_b) <- tmp;
      improved := true
    end
  done;
  perm

(* Fisher-Yates off the splitmix64 stream. *)
let random_perm rng n =
  let perm = identity n in
  for i = n - 1 downto 1 do
    let j = Machine.Fault.Rng.int rng (i + 1) in
    let tmp = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- tmp
  done;
  perm

(* Lexicographic (cost, permutation) order: a total order on attempts,
   so the winner does not depend on evaluation order. *)
let better (c1, p1) (c2, p2) = c1 < c2 || (c1 = c2 && compare p1 p2 < 0)

(* Restart 0 climbs from greedy, restarts 1 to 8 from random
   permutations. *)
let restarts = 8

let search ?(seed = 0) topo vol =
  let n = Machine.Topology.size topo in
  let dist = dist_table topo in
  let w = weight_matrix n vol in
  let attempt r =
    let start =
      if r = 0 then greedy topo vol
      else random_perm (Machine.Fault.Rng.make (seed + r)) n
    in
    let p = climb dist w start in
    (cost_w dist w p, p)
  in
  let attempts = List.init (restarts + 1) attempt in
  (* restart 0 climbs from greedy, so the winner never costs more than
     the greedy construction (which never costs more than identity) *)
  match attempts with
  | [] -> identity n
  | first :: rest ->
    snd (List.fold_left (fun acc x -> if better x acc then x else acc) first rest)

let compute s topo vol =
  match s.kind with
  | Identity -> identity (Machine.Topology.size topo)
  | Greedy -> greedy topo vol
  | Search -> search ~seed:s.seed topo vol
