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

let move ?offset ~vgrid flow v w =
  for r = 0 to Array.length vgrid - 1 do
    let x = ref (match offset with Some o -> o.(r) | None -> 0) in
    for c = 0 to Array.length vgrid - 1 do
      x := !x + (Mat.get flow r c * v.(c))
    done;
    let e = vgrid.(r) in
    w.(r) <- ((!x mod e) + e) mod e
  done

let index ~vgrid v =
  let idx = ref 0 in
  Array.iteri (fun d e -> idx := (!idx * e) + v.(d)) vgrid;
  !idx

let coords ~vgrid i v =
  let i = ref i in
  for d = Array.length vgrid - 1 downto 0 do
    v.(d) <- !i mod vgrid.(d);
    i := !i / vgrid.(d)
  done

(* [f v w] for every cell [v], last to first with [rev], where [w] is
   [v]'s successor; [v] and [w] are buffers reused from call to call. *)
let iter_flow ?offset ~rev ~vgrid flow f =
  check_flow ~vgrid flow;
  let d = Array.length vgrid in
  (match offset with
  | Some o when Array.length o <> d ->
    invalid_arg "Patterns: offset length does not match vgrid"
  | _ -> ());
  let v = Array.make d 0 and w = Array.make d 0 in
  let n = cells vgrid in
  for k = 0 to n - 1 do
    coords ~vgrid (if rev then n - 1 - k else k) v;
    move ?offset ~vgrid flow v w;
    f v w
  done

let successors ?offset ~vgrid flow =
  let succ = Array.make (cells vgrid) 0 in
  let i = ref 0 in
  iter_flow ?offset ~rev:false ~vgrid flow (fun _ w ->
      succ.(!i) <- index ~vgrid w;
      incr i);
  succ

let rank ~axes ?remap v =
  let r = ref 0 in
  for d = 0 to Array.length axes - 1 do
    r := !r + axes.(d).(v.(d))
  done;
  match remap with None -> !r | Some perm -> perm.(!r)

let traffic ?offset ~vgrid ~axes ?remap ~bytes flows emit =
  if bytes < 0 then invalid_arg "Message.make: negative size";
  List.iter
    (fun flow ->
      iter_flow ?offset ~rev:true ~vgrid flow (fun v w ->
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
