let out_bytes topo msgs =
  let n = Topology.size topo in
  let send = Array.make n 0 in
  List.iter
    (fun (m : Message.t) ->
      if not (Message.is_local m) then
        send.(m.Message.src) <- send.(m.Message.src) + m.Message.bytes)
    msgs;
  send

let load_heatmap topo msgs =
  let send = out_bytes topo msgs in
  let peak = Array.fold_left max 1 send in
  let glyph v =
    if v = 0 then '.'
    else Char.chr (Char.code '0' + min 9 (1 + (v * 8 / peak)))
  in
  let buf = Buffer.create 256 in
  let dims = Topology.dims topo in
  let cols = dims.(Array.length dims - 1) in
  Array.iteri
    (fun rank v ->
      Buffer.add_char buf (glyph v);
      if (rank + 1) mod cols = 0 then Buffer.add_char buf '\n'
      else Buffer.add_char buf ' ')
    send;
  Buffer.contents buf

let link_table topo msgs =
  let loads =
    List.sort (fun (_, a) (_, b) -> compare b a) (Netsim.link_loads topo msgs)
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun ((src, dst), load) ->
      Buffer.add_string buf (Printf.sprintf "%4d -> %-4d %8d\n" src dst load))
    loads;
  Buffer.contents buf
