open Linalg

let iter_box extents f =
  let n = Array.length extents in
  let idx = Array.make n 0 in
  let rec go d =
    if d = n then f (Array.copy idx)
    else
      for v = 0 to extents.(d) - 1 do
        idx.(d) <- v;
        go (d + 1)
      done
  in
  if n > 0 then go 0

let cells extents =
  if Array.length extents = 0 then 0
  else Array.fold_left (fun acc e -> acc * max 0 e) 1 extents

let check_flow ~vgrid flow =
  let d = Array.length vgrid in
  if Mat.rows flow <> d || Mat.cols flow <> d then
    invalid_arg "Patterns: flow shape does not match vgrid"

let index ~vgrid v =
  let idx = ref 0 in
  for d = 0 to Array.length vgrid - 1 do
    idx := (!idx * vgrid.(d)) + v.(d)
  done;
  !idx

let reduce x e = ((x mod e) + e) mod e

(* The odometer walk.  [v] moves through the cells one step at a time:
   its last coordinate moves by one ([dir]) and, past the end of its
   axis, wraps back and carries into the coordinate before.  As
   [w = flow v] is linear, moving [v] one step along axis [c]
   moves each [w.(r)] by a fixed amount, and wrapping [v] along [c] by
   another; both are reduced modulo [vgrid.(r)] once per call
   ([step.(c * d + r)] and [wrap.(c * d + r)]), so following [v] costs
   [w] one addition and at most one subtraction per coordinate. *)
let iter_flow ~rev ~vgrid flow f =
  check_flow ~vgrid flow;
  let d = Array.length vgrid in
  let n = cells vgrid in
  if n > 0 then begin
    let dir = if rev then -1 else 1 in
    let first = Array.map (fun e -> if rev then e - 1 else 0) vgrid in
    let last = Array.map (fun e -> if rev then 0 else e - 1) vgrid in
    let step = Array.make (d * d) 0 and wrap = Array.make (d * d) 0 in
    for c = 0 to d - 1 do
      for r = 0 to d - 1 do
        let e = vgrid.(r) in
        let a = reduce (Mat.get flow r c) e in
        step.((c * d) + r) <- reduce (dir * a) e;
        wrap.((c * d) + r) <- reduce (-dir * a * reduce (vgrid.(c) - 1) e) e
      done
    done;
    let v = Array.copy first in
    let w =
      Array.init d (fun r ->
          let x = ref 0 in
          for c = 0 to d - 1 do
            x := !x + (Mat.get flow r c * v.(c))
          done;
          reduce !x vgrid.(r))
    in
    let add moves c =
      let base = c * d in
      for r = 0 to d - 1 do
        let x = w.(r) + moves.(base + r) and e = vgrid.(r) in
        w.(r) <- (if x >= e then x - e else x)
      done
    in
    for k = 1 to n do
      f v w;
      if k < n then begin
        let c = ref (d - 1) in
        while v.(!c) = last.(!c) do
          v.(!c) <- first.(!c);
          add wrap !c;
          decr c
        done;
        v.(!c) <- v.(!c) + dir;
        add step !c
      end
    done
  end

let fill_successors ~vgrid flow succ =
  let i = ref 0 in
  iter_flow ~rev:false ~vgrid flow (fun _ w ->
      succ.(!i) <- index ~vgrid w;
      incr i)

let successors ~vgrid flow =
  let succ = Array.make (cells vgrid) 0 in
  fill_successors ~vgrid flow succ;
  succ

let rank ~axes ?remap v =
  let r = ref 0 in
  for d = 0 to Array.length axes - 1 do
    r := !r + axes.(d).(v.(d))
  done;
  match remap with None -> !r | Some perm -> perm.(!r)

(* Row-major like the walk, a cell's rank the running sum of its
   coordinates' table entries. *)
let fill_ranks ~axes ~vgrid table =
  let d = Array.length vgrid in
  let i = ref 0 in
  let rec go k base =
    if k = d then begin
      table.(!i) <- base;
      incr i
    end
    else
      for x = 0 to vgrid.(k) - 1 do
        go (k + 1) (base + axes.(k).(x))
      done
  in
  if d > 0 then go 0 0

let traffic ~vgrid ~axes ?remap ~bytes flows emit =
  if bytes < 0 then invalid_arg "Message.make: negative size";
  List.iter
    (fun flow ->
      iter_flow ~rev:true ~vgrid flow (fun v w ->
          emit (rank ~axes ?remap v) (rank ~axes ?remap w) bytes))
    flows

type boundary = [ `Wrap | `Clip ]

let in_box extents v =
  Array.length v = Array.length extents
  && Array.for_all2 (fun x e -> x >= 0 && x < e) v extents

let resolve boundary extents v =
  match boundary with
  | `Wrap -> Some (Array.map2 (fun x e -> ((x mod e) + e) mod e) v extents)
  | `Clip -> if in_box extents v then Some v else None

let translation_messages ?(boundary = `Wrap) ~vgrid ~shift ~bytes ~place () =
  let msgs = ref [] in
  iter_box vgrid (fun v ->
      let raw = Array.map2 ( + ) v shift in
      match resolve boundary vgrid raw with
      | Some dst -> msgs := Message.make ~src:(place v) ~dst:(place dst) ~bytes :: !msgs
      | None -> ());
  !msgs
