type scheme = Block | Cyclic | Cyclic_block of int | Grouped of int

type t = scheme array

let ceil_div a b = (a + b - 1) / b

let position1d scheme ~nv v =
  match scheme with
  | Block | Cyclic | Cyclic_block _ -> v
  | Grouped k ->
    if k <= 0 then invalid_arg "Layout.position1d: k <= 0";
    let c = v mod k and m = v / k in
    let class_size = ceil_div nv k in
    (c * class_size) + m

let place1d scheme ~nv ~np v =
  if v < 0 || v >= nv then invalid_arg "Layout.place1d: virtual index out of range";
  match scheme with
  | Block -> min (np - 1) (v / ceil_div nv np)
  | Cyclic -> v mod np
  | Cyclic_block b ->
    if b <= 0 then invalid_arg "Layout.place1d: block size <= 0";
    v / b mod np
  | Grouped k ->
    let pos = position1d (Grouped k) ~nv v in
    let padded = k * ceil_div nv k in
    min (np - 1) (pos / ceil_div padded np)

let place t ~vgrid ~topo vcoord =
  let n = Array.length vgrid in
  if Array.length t <> n || Array.length vcoord <> n || Machine.Topology.ndims topo <> n
  then invalid_arg "Layout.place: dimension mismatch";
  let pcoord =
    Array.init n (fun d ->
        place1d t.(d) ~nv:vgrid.(d) ~np:(Machine.Topology.dim topo d) vcoord.(d))
  in
  Machine.Topology.rank_of topo pcoord

let axes t ~vgrid ~topo =
  let n = Array.length vgrid in
  if Array.length t <> n || Machine.Topology.ndims topo <> n then
    invalid_arg "Layout.axes: dimension mismatch";
  (* [Topology.rank_of] is row-major: a coordinate adds its value
     times the product of the later extents *)
  let stride = ref 1 in
  let tables = Array.make n [||] in
  for d = n - 1 downto 0 do
    let np = Machine.Topology.dim topo d and nv = max 0 vgrid.(d) in
    let s = !stride in
    tables.(d) <- Array.init nv (fun v -> s * place1d t.(d) ~nv ~np v);
    stride := s * np
  done;
  tables

let all_block n = Array.make n Block
let all_cyclic n = Array.make n Cyclic

let pp_scheme ppf = function
  | Block -> Format.fprintf ppf "BLOCK"
  | Cyclic -> Format.fprintf ppf "CYCLIC"
  | Cyclic_block b -> Format.fprintf ppf "CYCLIC(%d)" b
  | Grouped k -> Format.fprintf ppf "GROUPED(%d)" k
