open Linalg

type volume = {
  flows : int;
  flow_rank : int;
  cells : int;
  nprocs : int;
  cap : int;
  orbits : int;
  longest_orbit : int;
  bound_bytes : int;
  achieved_bytes : int;
  per_proc_bound : int;
}

let ceil_div a b = if b <= 0 then 0 else (a + b - 1) / b

let volume ~vgrid ~bytes ~owner flows =
  let dims = Array.length vgrid in
  let n = Machine.Patterns.cells vgrid in
  if Array.length owner < n then invalid_arg "Bounds.volume: owner does not cover vgrid";
  (* balance of the given placement: cells per processor, counted
     over the span of processor ranks the placement uses *)
  let lo = ref max_int and hi = ref min_int in
  for idx = 0 to n - 1 do
    if owner.(idx) < !lo then lo := owner.(idx);
    if owner.(idx) > !hi then hi := owner.(idx)
  done;
  let counts = Array.make (if n = 0 then 0 else !hi - !lo + 1) 0 in
  for idx = 0 to n - 1 do
    let k = owner.(idx) - !lo in
    counts.(k) <- counts.(k) + 1
  done;
  let nprocs = Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 counts in
  let cap = Array.fold_left (fun acc c -> if c > acc then c else acc) 0 counts in
  let orbits = ref 0 and longest = ref 0 in
  let bound_msgs = ref 0 and achieved_msgs = ref 0 in
  let flow_rank = ref 0 in
  List.iter
    (fun flow ->
      if Mat.rows flow <> dims || Mat.cols flow <> dims then
        invalid_arg "Bounds.volume: flow shape does not match vgrid";
      flow_rank := max !flow_rank (Mat.rank (Mat.sub flow (Mat.identity dims)));
      (* successor of each cell under v -> F v (mod vgrid) *)
      let succ = Machine.Patterns.successors ~vgrid flow in
      for idx = 0 to n - 1 do
        if owner.(idx) <> owner.(succ.(idx)) then incr achieved_msgs
      done;
      (* orbit decomposition: an orbit of length L needs at least
         ceil(L / cap) processors under any placement with at most
         [cap] cells each, hence at least that many color changes *)
      let visited = Bytes.make n '\000' in
      for start = 0 to n - 1 do
        if Bytes.get visited start = '\000' then begin
          incr orbits;
          let len = ref 0 in
          let idx = ref start in
          while Bytes.get visited !idx = '\000' do
            Bytes.set visited !idx '\001';
            incr len;
            idx := succ.(!idx)
          done;
          if !len > !longest then longest := !len;
          if !len > cap then bound_msgs := !bound_msgs + ceil_div !len cap
        end
      done)
    flows;
  let bound_bytes = bytes * !bound_msgs in
  {
    flows = List.length flows;
    flow_rank = !flow_rank;
    cells = n;
    nprocs;
    cap;
    orbits = !orbits;
    longest_orbit = !longest;
    bound_bytes;
    achieved_bytes = bytes * !achieved_msgs;
    per_proc_bound = ceil_div bound_bytes nprocs;
  }

type time = {
  serial_lb : int;
  link_lb : int;
  hops_lb : int;
  bound_time : float;
  achieved : Machine.Netsim.stats;
  efficiency : float;
}

(* The bound's time and the efficiency under [params]; the three lower
   bounds and the achieved counts are the topology's. *)
let retime params t =
  let achieved = Machine.Netsim.retime params t.achieved in
  if achieved.Machine.Netsim.messages = 0 then { t with achieved }
  else
    let bound_time =
      (params.Machine.Netsim.alpha *. float_of_int t.serial_lb)
      +. (params.Machine.Netsim.beta *. float_of_int t.link_lb)
      +. (params.Machine.Netsim.hop *. float_of_int t.hops_lb)
    in
    let efficiency =
      if achieved.Machine.Netsim.time > 0.0 then bound_time /. achieved.Machine.Netsim.time
      else 1.0
    in
    { t with bound_time; achieved; efficiency }

let transfer_time topo params volume =
  let open Machine in
  (* one volume — coalesced, a message per nonlocal ordered endpoint
     pair, bytes summed — is both priced and bounded *)
  let achieved = Netsim.price topo params volume in
  (* fault-free, every remote pair is delivered *)
  if achieved.Netsim.messages = 0 then
    {
      serial_lb = 0;
      link_lb = 0;
      hops_lb = 0;
      bound_time = 0.0;
      achieved;
      efficiency = 1.0;
    }
  else begin
    let n = Topology.size topo in
    let nodes = Topology.nodes topo in
    let compiled = Compiled.get topo in
    let links = Compiled.undirected compiled in
    let dist = Compiled.distances compiled in
    (* per-node incident-link summary: count and max capacity *)
    let deg = Array.make nodes 0 in
    let cmax = Array.make nodes 1 in
    let cmax_global = ref 1 in
    List.iter
      (fun ((u, v), cap) ->
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1;
        cmax.(u) <- max cmax.(u) cap;
        cmax.(v) <- max cmax.(v) cap;
        cmax_global := max !cmax_global cap)
      links;
    (* serial: distinct peers per node — exactly Netsim's serial term
       on the coalesced multiset *)
    let send = Array.make n 0 and recv = Array.make n 0 in
    (* injection/ejection load sums, in link-load units *)
    let inj = Array.make n 0 and ej = Array.make n 0 in
    let hops_lb = ref 0 in
    let total_weighted = ref 0 in
    let half = n / 2 in
    let cut_bytes_load = ref 0 in
    Netsim.priced volume (fun src dst bytes ->
        send.(src) <- send.(src) + 1;
        recv.(dst) <- recv.(dst) + 1;
        inj.(src) <- inj.(src) + ceil_div bytes cmax.(src);
        ej.(dst) <- ej.(dst) + ceil_div bytes cmax.(dst);
        let d = dist.(src).(dst) in
        if d > !hops_lb then hops_lb := d;
        total_weighted := !total_weighted + (d * ceil_div bytes !cmax_global);
        if src < half <> (dst < half) then
          cut_bytes_load := !cut_bytes_load + ceil_div bytes !cmax_global);
    let serial_lb =
      max (Array.fold_left max 0 send) (Array.fold_left max 0 recv)
    in
    let link_lb = ref 0 in
    for r = 0 to n - 1 do
      if deg.(r) > 0 then begin
        link_lb := max !link_lb (ceil_div inj.(r) deg.(r));
        link_lb := max !link_lb (ceil_div ej.(r) deg.(r))
      end
    done;
    (* bisection-style cut, sound only when every vertex is a host
       (switchless topologies): a message between the halves must
       cross a half-crossing link *)
    if nodes = n then begin
      let crossing =
        List.length
          (List.filter (fun ((u, v), _) -> u < half <> (v < half)) links)
      in
      if crossing > 0 then
        link_lb := max !link_lb (ceil_div !cut_bytes_load (2 * crossing))
    end;
    (* distance-weighted average over all directed links *)
    let nlinks = List.length links in
    if nlinks > 0 then
      link_lb := max !link_lb (ceil_div !total_weighted (2 * nlinks));
    retime params
      {
        serial_lb;
        link_lb = !link_lb;
        hops_lb = !hops_lb;
        bound_time = 0.0;
        achieved;
        efficiency = 1.0;
      }
  end

let bar eff =
  let width = 20 in
  let eff = Float.min 1.0 (Float.max 0.0 eff) in
  let filled = int_of_float (Float.round (eff *. float_of_int width)) in
  "[" ^ String.make filled '#' ^ String.make (width - filled) '-' ^ "]"
