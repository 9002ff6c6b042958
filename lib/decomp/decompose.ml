open Linalg

let check_input t =
  if not (Mat.is_square t) || Mat.rows t <> 2 then
    invalid_arg "Decompose: expected a 2x2 matrix";
  if Mat.det t <> 1 then invalid_arg "Decompose: determinant must be 1"

let entries t = (Mat.get t 0 0, Mat.get t 0 1, Mat.get t 1 0, Mat.get t 1 1)

let verify t factors = Mat.equal t (Elementary.product (Mat.identity 2 :: factors))

let divisors n =
  (* all integer divisors of n (positive and negative); n <> 0 *)
  let n = abs n in
  let rec go k acc =
    if k > n then acc
    else if n mod k = 0 then go (k + 1) (k :: -k :: acc)
    else go (k + 1) acc
  in
  go 1 []

let one_factor t = if Elementary.is_elementary t then Some [ t ] else None

let two_factors t =
  let a, b, c, d = entries t in
  if a = 1 then Some [ Elementary.l2 c; Elementary.u2 b ]
  else if d = 1 then Some [ Elementary.u2 b; Elementary.l2 c ]
  else None

let three_factors t =
  let a, b, c, d = entries t in
  if c <> 0 && (a - 1) mod c = 0 then begin
    (* T = U(alpha) L(c) U(beta) with alpha = (a-1)/c, beta = b - alpha d *)
    let alpha = (a - 1) / c in
    let beta = b - (alpha * d) in
    let factors = [ Elementary.u2 alpha; Elementary.l2 c; Elementary.u2 beta ] in
    if verify t factors then Some factors else None
  end
  else if b <> 0 && (d - 1) mod b = 0 then begin
    (* T = L(alpha) U(b) L(gamma) with alpha = (d-1)/b, gamma = c - a alpha *)
    let alpha = (d - 1) / b in
    let gamma = c - (a * alpha) in
    let factors = [ Elementary.l2 alpha; Elementary.u2 b; Elementary.l2 gamma ] in
    if verify t factors then Some factors else None
  end
  else None

(* T = U(alpha) L(beta) U(gamma) L(delta):
     d = beta gamma + 1          => beta | d - 1
     c = beta + delta d          => delta = (c - beta) / d
     b = gamma + alpha d         => alpha = (b - gamma) / d
   (verified by multiplication; the d = 0 case enumerates alpha
   directly). *)
let four_factors_ulul t =
  let a, b, c, d = entries t in
  ignore a;
  if d = 0 then begin
    (* beta gamma = -1 *)
    let candidates = [ (1, -1); (-1, 1) ] in
    List.find_map
      (fun (beta, gamma) ->
        if c <> beta || b <> gamma then None
        else
          (* a = (1 + alpha beta)(1 + gamma delta) + alpha delta: solve
             by scanning small alpha; delta follows when linear *)
          let rec scan alpha =
            if alpha > 2 * (abs a + 2) then None
            else
              let try_alpha alpha =
                (* a = (1+alpha beta)(1 + gamma delta) + alpha delta
                     = (1+alpha beta) + delta (gamma (1+alpha beta) + alpha) *)
                let base = 1 + (alpha * beta) in
                let coef = (gamma * base) + alpha in
                if coef <> 0 && (a - base) mod coef = 0 then begin
                  let delta = (a - base) / coef in
                  let factors =
                    [
                      Elementary.u2 alpha;
                      Elementary.l2 beta;
                      Elementary.u2 gamma;
                      Elementary.l2 delta;
                    ]
                  in
                  if verify t factors then Some factors else None
                end
                else None
              in
              match try_alpha alpha with
              | Some f -> Some f
              | None -> (
                match try_alpha (-alpha) with
                | Some f -> Some f
                | None -> scan (alpha + 1))
          in
          scan 0)
      candidates
  end
  else if d = 1 then None (* two factors already *)
  else
    List.find_map
      (fun beta ->
        let gamma = (d - 1) / beta in
        if (c - beta) mod d <> 0 || (b - gamma) mod d <> 0 then None
        else begin
          let delta = (c - beta) / d in
          let alpha = (b - gamma) / d in
          let factors =
            [
              Elementary.u2 alpha;
              Elementary.l2 beta;
              Elementary.u2 gamma;
              Elementary.l2 delta;
            ]
          in
          if verify t factors then Some factors else None
        end)
      (divisors (d - 1))

(* T = L(alpha) U(beta) L(gamma) U(delta):
     a = beta gamma + 1          => beta | a - 1
     b = beta + delta a          => delta = (b - beta) / a
     c = gamma + alpha a         => alpha = (c - gamma) / a
   (the transposition trick does not help here: L U L U is closed
   under transposition). *)
let four_factors_lulu t =
  let a, b, c, d = entries t in
  ignore d;
  if a = 0 then begin
    (* beta gamma = -1: b and c are forced to beta and gamma *)
    let candidates = [ (1, -1); (-1, 1) ] in
    List.find_map
      (fun (beta, gamma) ->
        if b <> beta || c <> gamma then None
        else
          let rec scan alpha =
            if alpha > 2 * (abs d + 2) then None
            else
              let try_alpha alpha =
                (* d = alpha delta + (alpha beta + 1)(gamma delta + 1):
                   linear in delta once alpha is fixed *)
                let base = (alpha * beta) + 1 in
                let coef = alpha + (base * gamma) in
                if coef <> 0 && (d - base) mod coef = 0 then begin
                  let delta = (d - base) / coef in
                  let factors =
                    [
                      Elementary.l2 alpha;
                      Elementary.u2 beta;
                      Elementary.l2 gamma;
                      Elementary.u2 delta;
                    ]
                  in
                  if verify t factors then Some factors else None
                end
                else None
              in
              match try_alpha alpha with
              | Some f -> Some f
              | None -> (
                match try_alpha (-alpha) with
                | Some f -> Some f
                | None -> scan (alpha + 1))
          in
          scan 0)
      candidates
  end
  else if a = 1 then None (* two factors already *)
  else
    List.find_map
      (fun beta ->
        let gamma = (a - 1) / beta in
        if (b - beta) mod a <> 0 || (c - gamma) mod a <> 0 then None
        else begin
          let delta = (b - beta) / a in
          let alpha = (c - gamma) / a in
          let factors =
            [
              Elementary.l2 alpha;
              Elementary.u2 beta;
              Elementary.l2 gamma;
              Elementary.u2 delta;
            ]
          in
          if verify t factors then Some factors else None
        end)
      (divisors (a - 1))

let min_factors t =
  check_input t;
  if Mat.is_identity t then Some []
  else
    match one_factor t with
    | Some f -> Some f
    | None -> (
      match two_factors t with
      | Some f -> Some f
      | None -> (
        match three_factors t with
        | Some f -> Some f
        | None -> (
          match four_factors_ulul t with
          | Some f -> Some f
          | None -> four_factors_lulu t)))

let factor_count t = Option.map List.length (min_factors t)

let euclid t =
  check_input t;
  (* Reduce the first column to (+-1, 0) by left-multiplication with
     elementary inverses; collect the inverses' inverses. *)
  let ops = ref [] in
  (* ops, applied left to right, rebuild t from the reduced matrix:
     t = (op_1 * op_2 * ... * op_k) * reduced *)
  let cur = ref t in
  let apply_left e =
    (* cur := e^-1 * cur, record e *)
    let einv =
      match Elementary.axis_of e with
      | Some 0 -> Elementary.u2 (-Mat.get e 0 1)
      | Some 1 -> Elementary.l2 (-Mat.get e 1 0)
      | _ -> invalid_arg "euclid: not elementary"
    in
    cur := Mat.mul einv !cur;
    ops := e :: !ops
  in
  let rec reduce () =
    let a = Mat.get !cur 0 0 and c = Mat.get !cur 1 0 in
    if c = 0 then ()
    else if a = 0 then begin
      (* add row 2 to row 1 to make a non-zero *)
      apply_left (Elementary.u2 (-1));
      reduce ()
    end
    else begin
      (* Reduce the strictly larger entry; on ties reduce c, which
         zeroes it (c mod a = 0) and terminates — reducing a on a tie
         would oscillate between 0 and c forever. *)
      if abs a > abs c then begin
        let q = a / c in
        (* row1 <- row1 - q row2  ==  left-multiply by U(-q);
           recorded op is U(q) *)
        apply_left (Elementary.u2 q)
      end
      else begin
        let q = c / a in
        apply_left (Elementary.l2 q)
      end;
      reduce ()
    end
  in
  reduce ();
  (* now cur = [[g, b'], [0, g]] with g = +-1 (det 1) *)
  let g = Mat.get !cur 0 0 in
  let b' = Mat.get !cur 0 1 in
  let tail =
    if g = 1 then if b' = 0 then [] else [ Elementary.u2 b' ]
    else begin
      (* [[-1, b'], [0, -1]] = S^2 * U(-b') where
         S = U(-1) L(1) U(-1) = [[0,-1],[1,0]] *)
      let s = [ Elementary.u2 (-1); Elementary.l2 1; Elementary.u2 (-1) ] in
      s @ s @ if b' = 0 then [] else [ Elementary.u2 (-b') ]
    end
  in
  let factors = List.rev !ops @ tail in
  assert (verify t factors);
  factors

let pp_factors ppf factors =
  if factors = [] then Format.fprintf ppf "Id"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf " * ")
      (fun ppf f ->
        match Elementary.axis_of f with
        | Some 0 when Mat.rows f = 2 -> Format.fprintf ppf "U(%d)" (Mat.get f 0 1)
        | Some 1 when Mat.rows f = 2 -> Format.fprintf ppf "L(%d)" (Mat.get f 1 0)
        | _ -> Mat.pp_flat ppf f)
      ppf factors
