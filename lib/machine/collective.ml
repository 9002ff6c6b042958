let ceil_log2 n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

(* One tree round: a start-up, the payload on one link path, the hop
   latency for the (doubling) distance. *)
let tree_time topo (p : Netsim.params) ~bytes ~fanout_size =
  let rounds = ceil_log2 fanout_size in
  let rec dist_sum r acc reach =
    if r = 0 then acc else dist_sum (r - 1) (acc + reach) (reach * 2)
  in
  let hops = dist_sum rounds 0 1 in
  let hops = min hops (Topology.diameter topo * rounds) in
  (float_of_int rounds *. (p.Netsim.alpha +. (p.Netsim.beta *. float_of_int bytes)))
  +. (p.Netsim.hop *. float_of_int hops)

let broadcast topo p ~bytes = tree_time topo p ~bytes ~fanout_size:(Topology.size topo)

let reduce topo p ~bytes = tree_time topo p ~bytes ~fanout_size:(Topology.size topo)

(* Scatter: the root owns P items; each round forwards half of the
   remaining payload, so the bandwidth term sums P/2 + P/4 + ... ~ P
   items. *)
let scatter topo p ~bytes =
  let n = Topology.size topo in
  let rounds = ceil_log2 n in
  let payload_items = max 0 (n - 1) in
  (float_of_int rounds *. p.Netsim.alpha)
  +. (p.Netsim.beta *. float_of_int (payload_items * bytes))
  +. (p.Netsim.hop *. float_of_int (Topology.diameter topo))

let partial_broadcast topo p ~axis ~bytes =
  if axis < 0 || axis >= Topology.ndims topo then
    invalid_arg "Collective.partial_broadcast: bad axis";
  tree_time topo p ~bytes ~fanout_size:(Topology.dim topo axis)
