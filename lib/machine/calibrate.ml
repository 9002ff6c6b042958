type fit = { alpha : float; beta : float; residual : float }

let linear_fit samples =
  let n = List.length samples in
  if n < 2 then invalid_arg "Calibrate.linear_fit: need at least two samples";
  let xs = List.map (fun (b, _) -> float_of_int b) samples in
  if List.length (List.sort_uniq compare xs) < 2 then
    invalid_arg "Calibrate.linear_fit: need two distinct sizes";
  let ys = List.map snd samples in
  let fn = float_of_int n in
  let sx = List.fold_left ( +. ) 0.0 xs in
  let sy = List.fold_left ( +. ) 0.0 ys in
  let sxx = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
  let sxy = List.fold_left2 (fun acc x y -> acc +. (x *. y)) 0.0 xs ys in
  let beta = ((fn *. sxy) -. (sx *. sy)) /. ((fn *. sxx) -. (sx *. sx)) in
  let alpha = (sy -. (beta *. sx)) /. fn in
  let residual =
    List.fold_left2
      (fun acc x y ->
        let e = y -. (alpha +. (beta *. x)) in
        acc +. (e *. e))
      0.0 xs ys
  in
  { alpha; beta; residual = sqrt (residual /. fn) }

let measure_pingpong topo params ~sizes =
  List.map
    (fun bytes ->
      let ping = Message.of_list [ Message.make ~src:0 ~dst:1 ~bytes ] in
      let r = Eventsim.run topo params (Netsim.volume ~coalesce:false topo ping) in
      (bytes, float_of_int r.Eventsim.cycles))
    sizes

let fit_model topo params =
  linear_fit (measure_pingpong topo params ~sizes:[ 16; 64; 256; 1024; 4096 ])
