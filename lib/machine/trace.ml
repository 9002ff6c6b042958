let out_bytes topo (traffic : Message.traffic) =
  let send = Array.make (Topology.size topo) 0 in
  traffic (fun src dst bytes -> if src <> dst then send.(src) <- send.(src) + bytes);
  send

let load_heatmap topo traffic =
  let send = out_bytes topo traffic in
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
