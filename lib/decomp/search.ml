open Linalg

type histogram = {
  bound : int;
  total : int;
  by_factors : int array;
  beyond_four : int;
  witnesses_beyond : Mat.t list;
}

(* The box scan is sliced by the top-left entry [a]: each slice is an
   independent (2*bound+1)^3 scan, which is exactly the unit of work
   the parallel runtime wants.  Slices are evaluated in [a] order (or
   fanned over a {!Par.Pool} and reassembled in that order), so the
   merged histogram — witnesses included — is identical either way. *)

let iter_det1_slice ~bound a f =
  for b = -bound to bound do
    for c = -bound to bound do
      for d = -bound to bound do
        if (a * d) - (b * c) = 1 then f (Mat.of_lists [ [ a; b ]; [ c; d ] ])
      done
    done
  done

let avals ~bound = List.init ((2 * bound) + 1) (fun i -> i - bound)

let slice_map ?pool ~bound f =
  (* per-slice attribution for the scheduler profiler; the sprintf is
     only paid while a profile is being recorded *)
  let g a =
    if Obs.Profile.enabled () then
      Obs.Profile.task (Printf.sprintf "slice:a=%d" a) (fun () -> f a)
    else f a
  in
  match pool with
  | None -> List.map g (avals ~bound)
  | Some p -> Par.map p g (avals ~bound)

type factor_slice = {
  s_total : int;
  s_by : int array;
  s_beyond : int;
  s_witnesses : Mat.t list; (* first <= 5 of the slice, in order *)
}

let factor_slice ~bound a =
  let total = ref 0 in
  let by_factors = Array.make 5 0 in
  let beyond = ref 0 in
  let witnesses = ref [] in
  iter_det1_slice ~bound a (fun t ->
      incr total;
      match Decompose.factor_count t with
      | Some k -> by_factors.(k) <- by_factors.(k) + 1
      | None ->
        incr beyond;
        if List.length !witnesses < 5 then witnesses := t :: !witnesses);
  {
    s_total = !total;
    s_by = by_factors;
    s_beyond = !beyond;
    s_witnesses = List.rev !witnesses;
  }

let factor_histogram ?pool ~bound () =
  let slices = slice_map ?pool ~bound (factor_slice ~bound) in
  let by_factors = Array.make 5 0 in
  let total, beyond, witnesses_rev =
    List.fold_left
      (fun (total, beyond, ws) s ->
        Array.iteri (fun k v -> by_factors.(k) <- by_factors.(k) + v) s.s_by;
        (total + s.s_total, beyond + s.s_beyond, List.rev_append s.s_witnesses ws))
      (0, 0, []) slices
  in
  (* global first-5 = first 5 of the slice-ordered concatenation,
     because every global witness is within its slice's first 5 *)
  let witnesses = List.filteri (fun i _ -> i < 5) (List.rev witnesses_rev) in
  { bound; total; by_factors; beyond_four = beyond; witnesses_beyond = witnesses }

let similarity_histogram ?pool ~bound ~conj_bound () =
  let slice a =
    let total = ref 0 and suff = ref 0 and srch = ref 0 in
    iter_det1_slice ~bound a (fun t ->
        incr total;
        (match Similarity.sufficient t with Some _ -> incr suff | None -> ());
        match Similarity.search ~bound:conj_bound t with
        | Some _ -> incr srch
        | None -> ());
    (!total, !suff, !srch)
  in
  List.fold_left
    (fun (t, s, r) (t', s', r') -> (t + t', s + s', r + r'))
    (0, 0, 0)
    (slice_map ?pool ~bound slice)

let pp ppf h =
  Format.fprintf ppf
    "|entries| <= %d: %d det-1 matrices; factors 0:%d 1:%d 2:%d 3:%d 4:%d; >4: %d"
    h.bound h.total h.by_factors.(0) h.by_factors.(1) h.by_factors.(2)
    h.by_factors.(3) h.by_factors.(4) h.beyond_four
