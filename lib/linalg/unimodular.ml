let is_unimodular m = Mat.is_square m && abs (Mat.det m) = 1

let inverse m =
  if not (is_unimodular m) then invalid_arg "Unimodular.inverse: not unimodular";
  (* integer path: m^-1 = adjugate m / det m with det = +-1 *)
  let adj = Mat.adjugate m in
  if Mat.det m = 1 then adj else Mat.neg adj

let elementary_transvection n ~i ~j ~k =
  if i = j then invalid_arg "Unimodular.elementary_transvection: i = j";
  Mat.make n n (fun r c ->
      if r = c then 1 else if r = i && c = j then k else 0)

let random ~dim ~ops st =
  if dim < 1 then invalid_arg "Unimodular.random: dim < 1";
  let m = ref (Mat.identity dim) in
  for _ = 1 to if dim = 1 then 0 else ops do
    match Random.State.int st 3 with
    | 0 ->
      let i = Random.State.int st dim in
      let j = (i + 1 + Random.State.int st (dim - 1)) mod dim in
      let k = Random.State.int st 5 - 2 in
      m := Mat.mul (elementary_transvection dim ~i ~j ~k) !m
    | 1 ->
      let i = Random.State.int st dim in
      let j = (i + 1 + Random.State.int st (dim - 1)) mod dim in
      m := Mat.swap_rows !m i j
    | _ ->
      let i = Random.State.int st dim in
      m := Mat.make dim dim (fun r c ->
          let x = Mat.get !m r c in
          if r = i then -x else x)
  done;
  !m

let enumerate_2x2 ~bound =
  let acc = ref [] in
  for a = -bound to bound do
    for b = -bound to bound do
      for c = -bound to bound do
        for d = -bound to bound do
          let det = (a * d) - (b * c) in
          if det = 1 || det = -1 then
            acc := Mat.of_lists [ [ a; b ]; [ c; d ] ] :: !acc
        done
      done
    done
  done;
  !acc
