let print (layout : Layout.t) =
  let scheme = function
    | Layout.Block -> "BLOCK"
    | Layout.Cyclic -> "CYCLIC"
    | Layout.Cyclic_block b -> Printf.sprintf "CYCLIC(%d)" b
    | Layout.Grouped k -> Printf.sprintf "GROUPED(%d)" k
  in
  "(" ^ String.concat ", " (Array.to_list (Array.map scheme layout)) ^ ")"

let parse_scheme s =
  let s = String.trim s in
  let upper = String.uppercase_ascii s in
  let param prefix =
    (* PREFIX(k) *)
    let plen = String.length prefix in
    if
      String.length upper > plen + 2
      && String.sub upper 0 (plen + 1) = prefix ^ "("
      && upper.[String.length upper - 1] = ')'
    then int_of_string_opt (String.sub s (plen + 1) (String.length s - plen - 2))
    else None
  in
  match upper with
  | "BLOCK" -> Ok Layout.Block
  | "CYCLIC" -> Ok Layout.Cyclic
  | _ -> (
    match param "CYCLIC" with
    | Some b when b > 0 -> Ok (Layout.Cyclic_block b)
    | Some _ -> Error "CYCLIC block size must be positive"
    | None -> (
      match param "GROUPED" with
      | Some k when k > 0 -> Ok (Layout.Grouped k)
      | Some _ -> Error "GROUPED class count must be positive"
      | None -> Error (Printf.sprintf "unknown distribution %S" s)))

let parse text =
  let text = String.trim text in
  let n = String.length text in
  if n < 2 || text.[0] <> '(' || text.[n - 1] <> ')' then
    Error "expected a parenthesized distribution list"
  else begin
    let inner = String.sub text 1 (n - 2) in
    (* split on commas that are not inside parentheses *)
    let parts = ref [] and buf = Buffer.create 16 and depth = ref 0 in
    String.iter
      (fun c ->
        match c with
        | '(' ->
          incr depth;
          Buffer.add_char buf c
        | ')' ->
          decr depth;
          Buffer.add_char buf c
        | ',' when !depth = 0 ->
          parts := Buffer.contents buf :: !parts;
          Buffer.clear buf
        | c -> Buffer.add_char buf c)
      inner;
    parts := Buffer.contents buf :: !parts;
    let parts = List.rev !parts in
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | p :: rest -> (
        match parse_scheme p with
        | Ok s -> go (s :: acc) rest
        | Error e -> Error e)
    in
    go [] parts
  end
