(* Reference implementations for the differential tests: the list path
   residual traffic used to take from placement to price.  A flow is
   enumerated point by point into a [Message.t] list, each point
   placed through [Layout.place], and the list priced with a hop list
   per message and a Hashtbl keyed by directed link.  The int-array
   path (cell→rank tables, successor arrays, the Netsim core) must
   agree with it on the stats and on the telemetry a run records.
   The per-cell flow walk and the cubic greedy growing are kept here
   too, for the odometer walk and the incremental growing, and so is
   the work a sweep cell used to repeat: the baseline's own step 1,
   the translation shift re-priced per entry, and every decomposition
   phase walked before the direct price.  So are the message-list
   forms the simulators took before traffic became a stream: the
   Hashtbl coalescing whose order a coalesced [Netsim.replay] keeps,
   a stream read back as a list, and list-to-volume adapters.  Last,
   the exact-arithmetic kernels as they were before they looped
   directly ([Kernels]). *)

open Machine

(* ------------------------------------------------------------------ *)
(* Per-cell flow walk                                                  *)
(* ------------------------------------------------------------------ *)

(* The coordinates of cell [i], row-major, by division. *)
let coords ~vgrid i v =
  let i = ref i in
  for d = Array.length vgrid - 1 downto 0 do
    v.(d) <- !i mod vgrid.(d);
    i := !i / vgrid.(d)
  done

(* [w] := [flow v], wrapped onto [vgrid]. *)
let move ~vgrid flow v w =
  for r = 0 to Array.length vgrid - 1 do
    let x = ref 0 in
    for c = 0 to Array.length vgrid - 1 do
      x := !x + (Linalg.Mat.get flow r c * v.(c))
    done;
    let e = vgrid.(r) in
    w.(r) <- ((!x mod e) + e) mod e
  done

(* [Patterns.iter_flow] cell by cell: each cell's coordinates and its
   destination computed afresh. *)
let iter_flow ~rev ~vgrid flow f =
  let d = Array.length vgrid in
  let v = Array.make d 0 and w = Array.make d 0 in
  let n = Patterns.cells vgrid in
  for k = 0 to n - 1 do
    coords ~vgrid (if rev then n - 1 - k else k) v;
    move ~vgrid flow v w;
    f v w
  done

let successors ~vgrid flow =
  let index w =
    let i = ref 0 in
    Array.iteri (fun d x -> i := (!i * vgrid.(d)) + x) w;
    !i
  in
  let succ = ref [] in
  iter_flow ~rev:false ~vgrid flow (fun _ w -> succ := index w :: !succ);
  Array.of_list (List.rev !succ)

(* ------------------------------------------------------------------ *)
(* Greedy growing                                                      *)
(* ------------------------------------------------------------------ *)

(* The [Greedy] placement of [Mapping.compute] with the O(n^3)
   growing: every unplaced process's volume to the placed ones
   recomputed per step, and every free node scored over all placed
   processes. *)
let grow dist w n =
  let perm = Array.make n (-1) in
  let placed = Array.make n false and used = Array.make n false in
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
  perm.(first_proc) <- central;
  placed.(first_proc) <- true;
  used.(central) <- true;
  for _ = 2 to n do
    let next = ref (-1) and next_conn = ref (-1) in
    for p = 0 to n - 1 do
      if not placed.(p) then begin
        let conn = ref 0 in
        for q = 0 to n - 1 do
          if placed.(q) then conn := !conn + w.(p).(q)
        done;
        if !conn > !next_conn then begin
          next := p;
          next_conn := !conn
        end
      end
    done;
    let p = !next in
    let best_node = ref (-1) and best_cost = ref max_int in
    for node = 0 to n - 1 do
      if not used.(node) then begin
        let c = ref 0 in
        for q = 0 to n - 1 do
          if placed.(q) && w.(p).(q) <> 0 then
            c := !c + (w.(p).(q) * dist.(node).(perm.(q)))
        done;
        if !c < !best_cost then begin
          best_node := node;
          best_cost := !c
        end
      end
    done;
    perm.(p) <- !best_node;
    placed.(p) <- true;
    used.(!best_node) <- true
  done;
  perm

let greedy topo vol =
  let n = Topology.size topo in
  let w = Array.make_matrix n n 0 in
  List.iter
    (fun ((p, q), b) ->
      if p <> q && p >= 0 && p < n && q >= 0 && q < n then begin
        w.(p).(q) <- w.(p).(q) + b;
        w.(q).(p) <- w.(q).(p) + b
      end)
    vol;
  let grown = grow (Compiled.distances (Compiled.get topo)) w n in
  let id = Mapping.identity n in
  if Mapping.hop_bytes topo vol grown <= Mapping.hop_bytes topo vol id then grown else id

(* ------------------------------------------------------------------ *)
(* Messages of an affine flow                                          *)
(* ------------------------------------------------------------------ *)

type boundary = [ `Wrap | `Clip ]

let in_box extents v =
  Array.length v = Array.length extents
  && Array.for_all2 (fun x e -> x >= 0 && x < e) v extents

let resolve boundary extents v =
  match boundary with
  | `Wrap -> Some (Array.map2 (fun x e -> ((x mod e) + e) mod e) v extents)
  | `Clip -> if in_box extents v then Some v else None

(* One message per virtual processor [v] towards [flow v + offset]. *)
let affine_messages ?(boundary = `Wrap) ~vgrid ~flow ?offset ~bytes ~place () =
  let offset =
    match offset with Some o -> o | None -> Array.make (Linalg.Mat.rows flow) 0
  in
  let msgs = ref [] in
  Patterns.iter_box vgrid (fun v ->
      let raw = Array.map2 ( + ) (Linalg.Mat.mul_vec flow v) offset in
      match resolve boundary vgrid raw with
      | Some dst -> msgs := Message.make ~src:(place v) ~dst:(place dst) ~bytes :: !msgs
      | None -> ());
  !msgs

(* ------------------------------------------------------------------ *)
(* Message lists                                                       *)
(* ------------------------------------------------------------------ *)

(* The volume graph of a message list: [(src, dst) -> summed bytes],
   local pairs kept, in the order a Hashtbl keyed by [(src, dst)]
   folds the pairs into a list. *)
let volgraph msgs =
  let a = Hashtbl.create 64 in
  List.iter
    (fun (m : Message.t) ->
      let key = (m.Message.src, m.Message.dst) in
      let cur = Option.value ~default:0 (Hashtbl.find_opt a key) in
      Hashtbl.replace a key (cur + m.Message.bytes))
    msgs;
  Hashtbl.fold (fun k v l -> (k, v) :: l) a []

(* One message per (src, dst) pair with summed bytes, in [volgraph]
   order: the order message lists were coalesced in, which a coalesced
   [Netsim.replay] must keep. *)
let coalesce msgs =
  List.map (fun ((src, dst), bytes) -> Message.make ~src ~dst ~bytes) (volgraph msgs)

(* A stream's messages as a list. *)
let messages (traffic : Message.traffic) =
  let acc = ref [] in
  traffic (fun src dst bytes -> acc := Message.make ~src ~dst ~bytes :: !acc);
  List.rev !acc

(* A message list as an uncoalesced volume, as simulators took lists. *)
let raw topo msgs = Netsim.volume ~coalesce:false topo (Message.of_list msgs)

(* [Netsim.price] of a message list, coalesced by default. *)
let price ?coalesce ?faults topo params msgs =
  Netsim.price ?faults topo params
    (Netsim.volume ?coalesce topo (Message.of_list msgs))

(* ------------------------------------------------------------------ *)
(* List pricing                                                        *)
(* ------------------------------------------------------------------ *)

let route_of faults topo (m : Message.t) =
  if Fault.is_none faults then
    Some (Topology.route topo ~src:m.Message.src ~dst:m.Message.dst)
  else Fault.route faults topo ~src:m.Message.src ~dst:m.Message.dst

let effective_load topo faults l bytes =
  let cap = Topology.link_capacity topo l in
  if Fault.is_none faults && cap = 1 then bytes
  else
    let w =
      if Fault.is_none faults then 1.0
      else Fault.expected_transmissions faults l /. Fault.bandwidth_factor faults l
    in
    int_of_float (ceil (float_of_int bytes *. w /. float_of_int cap))

let bump tbl key v =
  Hashtbl.replace tbl key (v + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let add_route_loads topo faults loads bytes path =
  List.iter (fun link -> bump loads link (effective_load topo faults link bytes)) path

let sorted tbl = List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [])

let link_loads faults topo msgs =
  let loads = Hashtbl.create 64 in
  List.iter
    (fun (m : Message.t) ->
      if m.Message.src <> m.Message.dst then
        match route_of faults topo m with
        | Some path -> add_route_loads topo faults loads m.Message.bytes path
        | None -> ())
    msgs;
  sorted loads

(* The stats of one pricing. *)
let run ~coalesce:merge ~faults topo (params : Netsim.params) msgs =
  let remote = List.filter (fun (m : Message.t) -> m.src <> m.dst) msgs in
  let remote = if merge then coalesce remote else remote in
  let n = Topology.size topo in
  let send = Array.make n 0 and recv = Array.make n 0 in
  let total_bytes = ref 0 and total_hops = ref 0 and max_hops = ref 0 in
  let unreachable = ref 0 and priced = ref 0 in
  let loads = Hashtbl.create 64 in
  List.iter
    (fun (m : Message.t) ->
      match route_of faults topo m with
      | None -> incr unreachable
      | Some path ->
        incr priced;
        send.(m.Message.src) <- send.(m.Message.src) + 1;
        recv.(m.Message.dst) <- recv.(m.Message.dst) + 1;
        total_bytes := !total_bytes + m.Message.bytes;
        let h = List.length path in
        total_hops := !total_hops + h;
        if h > !max_hops then max_hops := h;
        add_route_loads topo faults loads m.Message.bytes path)
    remote;
  let max_link_load = Hashtbl.fold (fun _ v acc -> max v acc) loads 0 in
  let max_sender = Array.fold_left max 0 send in
  let max_receiver = Array.fold_left max 0 recv in
  let time =
    if !priced = 0 then 0.0
    else
      (params.Netsim.alpha *. float_of_int (max max_sender max_receiver))
      +. (params.Netsim.beta *. float_of_int max_link_load)
      +. (params.Netsim.hop *. float_of_int !max_hops)
  in
  {
    Netsim.time;
    messages = !priced;
    total_bytes = !total_bytes;
    total_hops = !total_hops;
    max_link_load;
    max_sender;
    max_receiver;
    max_hops = !max_hops;
    unreachable = !unreachable;
  }

(* ------------------------------------------------------------------ *)
(* Folded flows                                                        *)
(* ------------------------------------------------------------------ *)

(* The layout fold point by point, [remap] composed after it. *)
let place ?remap layout ~vgrid ~topo v =
  let r = Distrib.Layout.place layout ~vgrid ~topo v in
  match remap with None -> r | Some perm -> perm.(r)

(* [Foldsim.time]. *)
let foldsim_time ?(coalesce = true) ?(faults = Fault.none) ?remap
    (model : Models.t) ~layout ~vgrid ~flow ~bytes () =
  let topo = model.Models.topo in
  let place = place ?remap layout ~vgrid ~topo in
  run ~coalesce ~faults topo model.Models.net
    (affine_messages ~vgrid ~flow ~bytes ~place ())

(* [Foldsim.decomposed_time]: one stats per phase. *)
let decomposed_time ?(faults = Fault.none) ?remap (model : Models.t) ~layout ~vgrid
    ~factors ~bytes () =
  let topo = model.Models.topo in
  let place = place ?remap layout ~vgrid ~topo in
  let wrap v = Array.map2 (fun x e -> ((x mod e) + e) mod e) v vgrid in
  let positions = ref [] in
  Patterns.iter_box vgrid (fun v -> positions := v :: !positions);
  List.map
    (fun f ->
      let moved = ref [] and msgs = ref [] in
      List.iter
        (fun v ->
          let dst = wrap (Linalg.Mat.mul_vec f v) in
          moved := dst :: !moved;
          msgs := Message.make ~src:(place v) ~dst:(place dst) ~bytes :: !msgs)
        !positions;
      positions := !moved;
      run ~coalesce:true ~faults topo model.Models.net !msgs)
    (List.rev factors)

(* ------------------------------------------------------------------ *)
(* Sweep-cell pricing                                                  *)
(* ------------------------------------------------------------------ *)

(* The Feautrier baseline computed on its own: step 1 again, every
   residual downgraded to a general communication. *)
let feautrier ~m ~schedule nest =
  let open Resopt in
  let downgrade (e : Commplan.entry) =
    match e.Commplan.classification with
    | Commplan.Local | Commplan.Translation _ | Commplan.General _ -> e
    | Commplan.Reduction _ | Commplan.Broadcast _ | Commplan.Scatter _
    | Commplan.Gather _ ->
      { e with Commplan.classification = Commplan.General None }
    | Commplan.Decomposed { flow; _ } ->
      { e with Commplan.classification = Commplan.General (Some flow) }
  in
  let alloc = Alignment.Alloc.run ~m nest in
  (alloc, List.map downgrade (Commplan.build alloc schedule))

(* [Models.translation_time] priced afresh: the shift by one along
   axis 0, as a message list through [Netsim.price]. *)
let shift_time (model : Models.t) ~bytes =
  let topo = model.Models.topo in
  let n = Topology.size topo in
  let d0 = Topology.dim topo 0 in
  let stride = n / d0 in
  let dst r = if r / stride = d0 - 1 then r - ((d0 - 1) * stride) else r + stride in
  let msgs =
    List.filter_map
      (fun r -> if dst r = r then None else Some (Message.make ~src:r ~dst:(dst r) ~bytes))
      (List.init n (fun i -> n - 1 - i))
  in
  (price topo model.Models.net msgs).Netsim.time

let plan_bytes = 64

(* [Cost]'s direct price of a general flow. *)
let general_cost ~faults ?remap ~vgrid (model : Models.t) flow =
  match vgrid with
  | Some vgrid when Linalg.Mat.rows flow = 2 && Linalg.Mat.cols flow = 2 ->
    let axes =
      Distrib.Layout.axes (Distrib.Layout.all_cyclic 2) ~vgrid ~topo:model.Models.topo
    in
    (Models.price ~coalesce:false ~faults model
       (Patterns.traffic ~vgrid ~axes ?remap ~bytes:plan_bytes [ flow ]))
      .Netsim.time
  | _ ->
    let n = Topology.size model.Models.topo in
    let net = model.Models.net in
    Fault.uniform_slowdown faults
    *. ((float_of_int (n - 1)
        *. (net.Netsim.alpha +. (net.Netsim.beta *. float_of_int plan_bytes)))
       +. (net.Netsim.hop *. float_of_int (Topology.diameter model.Models.topo)))

(* A decomposed entry's two candidate prices, every phase walked:
   [Cost] charges [min phases direct]. *)
let decomposed_prices ~faults ?remap ~vgrid (model : Models.t) ~flow factors =
  let phases =
    match vgrid with
    | Some vgrid
      when List.for_all (fun f -> Linalg.Mat.rows f = 2 && Linalg.Mat.cols f = 2) factors ->
      let k =
        List.fold_left
          (fun acc f ->
            max acc (max (abs (Linalg.Mat.get f 0 1)) (abs (Linalg.Mat.get f 1 0))))
          1 factors
      in
      let layout = [| Distrib.Layout.Grouped k; Distrib.Layout.Grouped k |] in
      Distrib.Foldsim.total_time
        (decomposed_time ~faults ?remap model ~layout ~vgrid ~factors ~bytes:plan_bytes ())
    | _ ->
      Fault.uniform_slowdown faults
      *. float_of_int (List.length factors)
      *. shift_time model ~bytes:plan_bytes
  in
  (phases, general_cost ~faults ?remap ~vgrid model flow)

(* [decomposed_prices] of every decomposed entry of [plan], in plan
   order, on the residual grid and under the placement [Cost.of_plan]
   would use. *)
let decomposed_costs ?mapping ~faults model plan =
  let open Resopt in
  let traffic = Residual.of_plan model plan in
  let vgrid = Option.map (fun (t : Residual.t) -> t.Residual.vgrid) traffic in
  let remap =
    match (mapping, traffic) with
    | Some spec, Some t when t.Residual.flows <> [] -> Some (Residual.placement spec t)
    | _ -> None
  in
  List.filter_map
    (fun (e : Commplan.entry) ->
      match e.Commplan.classification with
      | Commplan.Decomposed { flow; factors } ->
        Some (decomposed_prices ~faults ?remap ~vgrid model ~flow factors)
      | _ -> None)
    plan

(* ------------------------------------------------------------------ *)
(* Exhaustive oracles for live kernels                                 *)
(* ------------------------------------------------------------------ *)

(* Schedule legality by enumeration: replay the (capped) iteration
   domains in program order, remember the last conflicting access per
   array element, and report every pair the schedule reverses.  The
   executable counterpart of the hyperplane condition [theta . d >= 1]
   that [Schedule.lamport] implements, and of the order [Distexec]
   replays. *)
module Legality = struct
  open Nestir

  type violation = {
    array_name : string;
    element : int list;
    first : string * int array;  (* statement and iteration, program order *)
    second : string * int array;
    reason : string;
  }

  (* Lexicographic comparison of (possibly multidimensional) timesteps. *)
  let time_compare a b = Stdlib.compare (Array.to_list a) (Array.to_list b)

  let check (nest : Loopnest.t) (sched : Schedule.t) =
    let violations = ref [] in
    (* last conflicting access per array element, in program order:
       (kind, stmt, iteration, timestep) *)
    let last :
        ( string * int list,
          Loopnest.access_kind * string * int array * int array )
        Hashtbl.t =
      Hashtbl.create 256
    in
    List.iter
      (fun (s : Loopnest.stmt) ->
        let theta = Schedule.theta sched s.Loopnest.stmt_name in
        let capped = Array.map (fun e -> min e 5) s.Loopnest.extent in
        Patterns.iter_box capped (fun i ->
            let t = Linalg.Mat.mul_vec theta i in
            List.iter
              (fun (a : Loopnest.access) ->
                let el = Array.to_list (Affine.apply a.Loopnest.map i) in
                let key = (a.Loopnest.array_name, el) in
                (match (Hashtbl.find_opt last key, a.Loopnest.kind) with
                | Some (prev_kind, ps, pi, pt), kind
                  when prev_kind = Loopnest.Write || kind = Loopnest.Write ->
                  (* conflicting pair in program order: the later access
                     must not run at a strictly earlier timestep; equal
                     timesteps are fine across statements (statement
                     phases execute in textual order inside a timestep)
                     but a race between two instances of one statement *)
                  let same_stmt = ps = s.Loopnest.stmt_name in
                  let same_instance = same_stmt && pi = i in
                  if
                    (not same_instance)
                    && (time_compare pt t > 0 || (time_compare pt t = 0 && same_stmt))
                  then
                    violations :=
                      {
                        array_name = a.Loopnest.array_name;
                        element = el;
                        first = (ps, pi);
                        second = (s.Loopnest.stmt_name, i);
                        reason =
                          (if time_compare pt t = 0 then
                             "conflicting accesses share a timestep"
                           else "schedule reverses a conflicting pair");
                      }
                      :: !violations
                | _ -> ());
                (* writes supersede the remembered access; reads only
                   replace other reads *)
                match (Hashtbl.find_opt last key, a.Loopnest.kind) with
                | _, Loopnest.Write ->
                  Hashtbl.replace last key (Loopnest.Write, s.Loopnest.stmt_name, i, t)
                | Some (Loopnest.Write, _, _, _), Loopnest.Read -> ()
                | _, Loopnest.Read ->
                  Hashtbl.replace last key (Loopnest.Read, s.Loopnest.stmt_name, i, t))
              s.Loopnest.accesses))
      nest.Loopnest.stmts;
    List.rev !violations

  let is_legal nest sched = check nest sched = []
end

(* Iteration domains beyond rectangles: a box intersected with affine
   half-spaces [coeffs . I <= bound], small enough to enumerate.  The
   input of the exact dependence oracle below. *)
module Domain = struct
  type t = {
    extents : int array;
    half_spaces : (int array * int) list;
  }

  let box extents =
    if Array.length extents = 0 then invalid_arg "Domain.box: empty";
    Array.iter
      (fun e -> if e <= 0 then invalid_arg "Domain.box: non-positive extent")
      extents;
    { extents = Array.copy extents; half_spaces = [] }

  let constrain t ~coeffs ~bound =
    if Array.length coeffs <> Array.length t.extents then
      invalid_arg "Domain.constrain: dimension mismatch";
    { t with half_spaces = (Array.copy coeffs, bound) :: t.half_spaces }

  (* [{(i, j) | 0 <= i <= j < n}]: i - j <= 0 *)
  let triangular n = constrain (box [| n; n |]) ~coeffs:[| 1; -1 |] ~bound:0

  let dot a b =
    let acc = ref 0 in
    Array.iteri (fun k x -> acc := !acc + (x * b.(k))) a;
    !acc

  let inside t p = List.for_all (fun (c, b) -> dot c p <= b) t.half_spaces

  let mem t p =
    Array.length p = Array.length t.extents
    && Array.for_all2 (fun x e -> x >= 0 && x < e) p t.extents
    && inside t p

  let iter t f = Patterns.iter_box t.extents (fun p -> if inside t p then f (Array.copy p))

  let count t =
    let c = ref 0 in
    iter t (fun _ -> incr c);
    !c

  let is_empty t = count t = 0
end

(* Exhaustive dependence oracle: does any pair of points of the two
   domains touch the same element?  The algebraic GCD and Banerjee
   tests must fire whenever it does. *)
let exact_test d1 d2 (a1 : Nestir.Affine.t) (a2 : Nestir.Affine.t) =
  Nestir.Affine.dim_out a1 = Nestir.Affine.dim_out a2
  &&
  let hits = Hashtbl.create 64 in
  Domain.iter d1 (fun i ->
      Hashtbl.replace hits (Array.to_list (Nestir.Affine.apply a1 i)) ());
  let found = ref false in
  Domain.iter d2 (fun i ->
      if Hashtbl.mem hits (Array.to_list (Nestir.Affine.apply a2 i)) then found := true);
  !found

(* A branching's total weight. *)
let total_weight edges =
  List.fold_left (fun acc (e : Alignment.Edmonds.edge) -> acc + e.weight) 0 edges

(* Is this edge set a branching: in-degree at most one and no directed
   cycle? *)
let is_branching ~n edges =
  let open Alignment.Edmonds in
  let indeg = Array.make n 0 in
  List.iter (fun e -> indeg.(e.dst) <- indeg.(e.dst) + 1) edges;
  let ok_indeg = Array.for_all (fun d -> d <= 1) indeg in
  (* acyclicity: follow unique parents *)
  let parent = Array.make n (-1) in
  List.iter (fun e -> parent.(e.dst) <- e.src) edges;
  let acyclic = ref true in
  for start = 0 to n - 1 do
    let v = ref start and steps = ref 0 in
    while parent.(!v) >= 0 && !steps <= n do
      v := parent.(!v);
      incr steps
    done;
    if !steps > n then acyclic := false
  done;
  ok_indeg && !acyclic

(* Optimal branching weight by trying every edge subset (at most 20
   edges): the oracle for [Edmonds.maximum_branching]. *)
let brute_force_branching ~n edges =
  let arr = Array.of_list edges in
  let k = Array.length arr in
  if k > 20 then invalid_arg "brute_force_branching: too many edges";
  let best = ref 0 in
  for mask = 0 to (1 lsl k) - 1 do
    let subset = ref [] in
    for i = 0 to k - 1 do
      if mask land (1 lsl i) <> 0 then subset := arr.(i) :: !subset
    done;
    if is_branching ~n !subset then best := max !best (total_weight !subset)
  done;
  !best

(* Is this a permutation of [0 .. n-1]?  What every placement must be. *)
let is_permutation perm =
  let n = Array.length perm in
  let seen = Array.make n false in
  Array.for_all
    (fun p ->
      p >= 0 && p < n && (not seen.(p))
      && begin
           seen.(p) <- true;
           true
         end)
    perm

(* The non-local term [M_S - M_x F] of an access: zero iff local. *)
let comm_matrix t (s : Nestir.Loopnest.stmt) (a : Nestir.Loopnest.access) =
  let open Alignment in
  let ms = Alloc.alloc_of t (Access_graph.Stmt_v s.stmt_name) in
  let mx = Alloc.alloc_of t (Access_graph.Array_v a.array_name) in
  Linalg.Mat.sub ms (Linalg.Mat.mul mx a.map.Nestir.Affine.f)

(* Every access an alignment reports local has a zero non-local term,
   and every allocation has full rank [m]. *)
let verify_alloc (t : Alignment.Alloc.t) =
  let open Nestir in
  List.for_all (fun (_, mv) -> Linalg.Ratmat.rank_of_mat mv = t.m) t.allocs
  && List.for_all
       (fun ((s : Loopnest.stmt), (a : Loopnest.access)) ->
         let label = if a.label = "" then a.array_name else a.label in
         (not (Alignment.Alloc.is_local t ~stmt:s.stmt_name ~label))
         || Linalg.Mat.is_zero (comm_matrix t s a))
       (Loopnest.all_accesses t.nest)

(* The binomial-tree broadcast as explicit rounds: in round [r] every
   rank that holds the item forwards it to [rank + 2^r], in rank space
   relative to the root.  Priced round by round under the network, it
   is the simulation [Collective.broadcast]'s closed form stands for. *)
let broadcast_rounds topo ~root ~bytes =
  let n = Topology.size topo in
  let unrel r = (r + root) mod n in
  let rec rounds reach acc =
    if reach >= n then List.rev acc
    else
      let round =
        List.filter_map
          (fun holder ->
            let target = holder + reach in
            if target < n then
              Some (Message.make ~src:(unrel holder) ~dst:(unrel target) ~bytes)
            else None)
          (List.init reach Fun.id)
      in
      rounds (2 * reach) (round :: acc)
  in
  rounds 1 []

let simulate_broadcast topo p ~root ~bytes =
  List.fold_left
    (fun acc round -> acc +. (price topo p round).Netsim.time)
    0.0
    (broadcast_rounds topo ~root ~bytes)

(* The virtual indices one physical coordinate owns under
   [Layout.place1d]: the local iteration set of a code generator. *)
let local_indices scheme ~nv ~np p =
  List.filter (fun v -> Distrib.Layout.place1d scheme ~nv ~np v = p) (List.init nv Fun.id)

(* The longest route any host pair may take: the diameter, two more
   under Valiant routing, whose detours may exceed it. *)
let route_bound topo =
  Topology.diameter topo
  + if (Topology.capability topo).Topology.adaptive_routing then 2 else 0

(* The one nest [Gennest] draws from [seed]. *)
let generated ~seed = List.hd (Nestir.Gennest.generate_many ~seed ~count:1)

(* A pool of [jobs] for the span of [f], shut down however [f] ends. *)
let with_pool ~jobs f =
  let pool = Par.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f pool)

(* [Paper_examples.example1] with loop extents [n] and [m] in place of
   8 and 8, the inner loop of [S2] and [S3] running to [n + m]. *)
let example1 ~n ~m =
  let open Nestir.Loopnest in
  let nest = Nestir.Paper_examples.example1 () in
  let resize s =
    { s with extent = (if s.depth = 2 then [| n; m |] else [| n; m; n + m |]) }
  in
  { nest with stmts = List.map resize nest.stmts }

(* ------------------------------------------------------------------ *)
(* Linear-algebra kernels                                              *)
(* ------------------------------------------------------------------ *)

(* [Mat], [Ratmat], [Rat] and [Affine.apply] as they were before they
   allocated each result once and looped directly: a row per
   [Array.init], an entry per closure call, every rational through the
   gcd.  Matrices are read through the public accessors and results
   returned as arrays; a rational is a [(num, den)] pair. *)
module Kernels = struct
  open Linalg

  let for_all f m =
    let ok = ref true in
    for i = 0 to Mat.rows m - 1 do
      for j = 0 to Mat.cols m - 1 do
        if not (f i j (Mat.get m i j)) then ok := false
      done
    done;
    !ok

  let mat_make r c f =
    if r <= 0 || c <= 0 then invalid_arg "Mat.make: non-positive dimension";
    Array.init r (fun i -> Array.init c (fun j -> f i j))

  let mat_is_identity m =
    Mat.rows m = Mat.cols m && for_all (fun i j x -> x = if i = j then 1 else 0) m

  let mat_is_zero m = for_all (fun _ _ x -> x = 0) m

  let mat_equal m n =
    Mat.rows m = Mat.rows n && Mat.cols m = Mat.cols n
    && for_all (fun i j x -> x = Mat.get n i j) m

  let mat_transpose m = mat_make (Mat.cols m) (Mat.rows m) (fun i j -> Mat.get m j i)

  let mat_sub m n =
    if Mat.rows m <> Mat.rows n || Mat.cols m <> Mat.cols n then
      invalid_arg
        (Printf.sprintf "Mat.%s: dimension mismatch %dx%d vs %dx%d" "sub" (Mat.rows m)
           (Mat.cols m) (Mat.rows n) (Mat.cols n));
    mat_make (Mat.rows m) (Mat.cols m) (fun i j -> Mat.get m i j - Mat.get n i j)

  let mat_mul m n =
    if Mat.cols m <> Mat.rows n then
      invalid_arg
        (Printf.sprintf "Mat.mul: dimension mismatch %dx%d * %dx%d" (Mat.rows m)
           (Mat.cols m) (Mat.rows n) (Mat.cols n));
    mat_make (Mat.rows m) (Mat.cols n) (fun i j ->
        let acc = ref 0 in
        for k = 0 to Mat.cols m - 1 do
          acc := !acc + (Mat.get m i k * Mat.get n k j)
        done;
        !acc)

  let mat_mul_vec m v =
    if Array.length v <> Mat.cols m then invalid_arg "Mat.mul_vec: dimension mismatch";
    Array.init (Mat.rows m) (fun i ->
        let acc = ref 0 in
        for j = 0 to Mat.cols m - 1 do
          acc := !acc + (Mat.get m i j * v.(j))
        done;
        !acc)

  let affine_apply (t : Nestir.Affine.t) i =
    let fi = mat_mul_vec t.Nestir.Affine.f i in
    Array.mapi (fun k x -> x + t.Nestir.Affine.c.(k)) fi

  let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

  let rat_make num den =
    if den = 0 then raise Division_by_zero;
    let s = if den < 0 then -1 else 1 in
    let num = s * num and den = s * den in
    let g = gcd num den in
    if g = 0 then (0, 1) else (num / g, den / g)

  let rat_add (an, ad) (bn, bd) = rat_make ((an * bd) + (bn * ad)) (ad * bd)
  let rat_sub (an, ad) (bn, bd) = rat_make ((an * bd) - (bn * ad)) (ad * bd)
  let rat_mul (an, ad) (bn, bd) = rat_make (an * bn) (ad * bd)

  let ratmat_make r c f =
    if r <= 0 || c <= 0 then invalid_arg "Ratmat.make: non-positive dimension";
    Array.init r (fun i -> Array.init c (fun j -> f i j))

  (* A rational matrix as its entries' pairs. *)
  let ratmat_get m i j =
    let x = Ratmat.get m i j in
    (x.Rat.num, Rat.den x)

  let ratmat_transpose m =
    ratmat_make (Ratmat.cols m) (Ratmat.rows m) (fun i j -> ratmat_get m j i)

  let ratmat_mul m n =
    if Ratmat.cols m <> Ratmat.rows n then invalid_arg "Ratmat.mul: dimension mismatch";
    ratmat_make (Ratmat.rows m) (Ratmat.cols n) (fun i j ->
        let acc = ref (0, 1) in
        for k = 0 to Ratmat.cols m - 1 do
          acc := rat_add !acc (rat_mul (ratmat_get m i k) (ratmat_get n k j))
        done;
        !acc)
end
