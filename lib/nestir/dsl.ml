open Linalg

exception Syntax of string

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let print_matrix f =
  let row i =
    String.concat " "
      (List.init (Mat.cols f) (fun j -> string_of_int (Mat.get f i j)))
  in
  "[" ^ String.concat "; " (List.init (Mat.rows f) row) ^ "]"

let print_offset c =
  if Array.for_all (( = ) 0) c then ""
  else
    " + ("
    ^ String.concat " " (Array.to_list (Array.map string_of_int c))
    ^ ")"

let print (nest : Loopnest.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("nest " ^ nest.Loopnest.nest_name ^ "\n");
  List.iter
    (fun (a : Loopnest.array_decl) ->
      Buffer.add_string buf
        (Printf.sprintf "array %s %d\n" a.Loopnest.array_name a.Loopnest.dim))
    nest.Loopnest.arrays;
  List.iter
    (fun (s : Loopnest.stmt) ->
      Buffer.add_string buf
        (Printf.sprintf "stmt %s depth %d extent %s\n" s.Loopnest.stmt_name
           s.Loopnest.depth
           (String.concat " "
              (Array.to_list (Array.map string_of_int s.Loopnest.extent))));
      List.iter
        (fun (a : Loopnest.access) ->
          Buffer.add_string buf
            (Printf.sprintf "  %s %s%s %s%s\n"
               (match a.Loopnest.kind with
               | Loopnest.Read -> "read"
               | Loopnest.Write -> "write")
               a.Loopnest.array_name
               (if a.Loopnest.label = "" then "" else " " ^ a.Loopnest.label)
               (print_matrix a.Loopnest.map.Affine.f)
               (print_offset a.Loopnest.map.Affine.c)))
        s.Loopnest.accesses)
    nest.Loopnest.stmts;
  Buffer.contents buf

let print_with_schedule nest = function
  | None -> print nest
  | Some sched ->
    print nest
    ^ String.concat ""
        (List.map
           (fun (s : Loopnest.stmt) ->
             Printf.sprintf "schedule %s %s\n" s.Loopnest.stmt_name
               (print_matrix (Schedule.theta sched s.Loopnest.stmt_name)))
           nest.Loopnest.stmts)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let int_of_token t =
  match int_of_string_opt t with
  | Some v -> v
  | None -> raise (Syntax (Printf.sprintf "expected an integer, got %S" t))

(* Split a line into tokens, keeping '[' ']' '(' ')' ';' '+' as their
   own tokens. *)
let tokenize line =
  let buf = Buffer.create 8 in
  let tokens = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      tokens := Buffer.contents buf :: !tokens;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' -> flush ()
      | '[' | ']' | '(' | ')' | ';' | '+' ->
        flush ();
        tokens := String.make 1 c :: !tokens
      | '#' -> flush () (* comments handled by the caller *)
      | c -> Buffer.add_char buf c)
    line;
  flush ();
  List.rev !tokens

(* matrix: [ r00 r01 ; r10 r11 ; ... ] *)
let parse_matrix tokens =
  match tokens with
  | "[" :: rest ->
    let rec rows acc current = function
      | "]" :: rest ->
        let all = List.rev (List.rev current :: acc) in
        let all = List.filter (fun r -> r <> []) all in
        if all = [] then raise (Syntax "empty matrix");
        (Mat.of_lists all, rest)
      | ";" :: rest -> rows (List.rev current :: acc) [] rest
      | t :: rest -> rows acc (int_of_token t :: current) rest
      | [] -> raise (Syntax "unterminated matrix")
    in
    rows [] [] rest
  | t :: _ -> raise (Syntax (Printf.sprintf "expected '[', got %S" t))
  | [] -> raise (Syntax "expected a matrix")

(* optional offset: + ( c0 c1 ... ) *)
let parse_offset tokens ~rows =
  match tokens with
  | [] -> Array.make rows 0
  | "+" :: "(" :: rest ->
    let rec go acc = function
      | ")" :: [] -> Array.of_list (List.rev acc)
      | ")" :: extra ->
        raise
          (Syntax
             (Printf.sprintf "trailing tokens after offset: %s"
                (String.concat " " extra)))
      | t :: rest -> go (int_of_token t :: acc) rest
      | [] -> raise (Syntax "unterminated offset")
    in
    let c = go [] rest in
    if Array.length c <> rows then raise (Syntax "offset length mismatch");
    c
  | extra ->
    raise
      (Syntax (Printf.sprintf "unexpected tokens: %s" (String.concat " " extra)))

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let parse text =
  let lines = String.split_on_char '\n' text in
  let name = ref None in
  let arrays = ref [] in
  let stmts = ref [] in
  (* current statement under construction *)
  let cur : (string * int * int array * Loopnest.access list ref) option ref =
    ref None
  in
  let finish_stmt () =
    match !cur with
    | None -> ()
    | Some (sname, depth, extent, accesses) ->
      stmts :=
        {
          Loopnest.stmt_name = sname;
          depth;
          extent;
          accesses = List.rev !accesses;
        }
        :: !stmts;
      cur := None
  in
  try
    List.iteri
      (fun lineno line ->
        let fail msg = raise (Syntax (Printf.sprintf "line %d: %s" (lineno + 1) msg)) in
        let wrap f = try f () with Syntax m -> fail m in
        match tokenize (strip_comment line) with
        | [] -> ()
        | [ "nest"; n ] -> name := Some n
        | [ "array"; a; d ] ->
          wrap (fun () ->
              arrays :=
                { Loopnest.array_name = a; dim = int_of_token d } :: !arrays)
        | "stmt" :: sname :: "depth" :: d :: "extent" :: extents ->
          wrap (fun () ->
              finish_stmt ();
              let depth = int_of_token d in
              let extent = Array.of_list (List.map int_of_token extents) in
              cur := Some (sname, depth, extent, ref []))
        | "schedule" :: _ -> () (* handled by parse_with_schedule *)
        | (("read" | "write") as kind) :: arr :: rest ->
          wrap (fun () ->
              match !cur with
              | None -> fail "access outside a statement"
              | Some (_, _, _, accesses) ->
                let label, rest =
                  match rest with
                  | "[" :: _ -> ("", rest)
                  | l :: rest -> (l, rest)
                  | [] -> fail "missing access matrix"
                in
                let f, rest = parse_matrix rest in
                let c = parse_offset rest ~rows:(Mat.rows f) in
                accesses :=
                  Loopnest.access ~array_name:arr ~label
                    (if kind = "read" then Loopnest.Read else Loopnest.Write)
                    (Affine.make f c)
                  :: !accesses)
        | t :: _ -> fail (Printf.sprintf "unknown directive %S" t))
      lines;
    finish_stmt ();
    match !name with
    | None -> Error "missing 'nest <name>' declaration"
    | Some n -> (
      try
        Ok (Loopnest.make ~name:n ~arrays:(List.rev !arrays) ~stmts:(List.rev !stmts))
      with Invalid_argument m -> Error m)
  with Syntax m -> Error m

let parse_exn text =
  match parse text with Ok n -> n | Error m -> invalid_arg ("Dsl.parse: " ^ m)

let parse_with_schedule text =
  match parse text with
  | Error e -> Error e
  | Ok nest -> (
    let entries = ref [] in
    let error = ref None in
    List.iteri
      (fun lineno line ->
        match tokenize (strip_comment line) with
        | "schedule" :: sname :: rest -> (
          try
            let f, extra = parse_matrix rest in
            if extra <> [] then raise (Syntax "trailing tokens after schedule");
            entries := (sname, f) :: !entries
          with Syntax m ->
            error := Some (Printf.sprintf "line %d: %s" (lineno + 1) m))
        | _ -> ())
      (String.split_on_char '\n' text);
    match !error with
    | Some e -> Error e
    | None ->
      if !entries = [] then Ok (nest, None)
      else begin
        (* statements without a line get the zero schedule *)
        let sched =
          Schedule.make
            (List.map
               (fun (st : Loopnest.stmt) ->
                 match List.assoc_opt st.Loopnest.stmt_name !entries with
                 | Some f -> (st.Loopnest.stmt_name, f)
                 | None -> (st.Loopnest.stmt_name, Linalg.Mat.zero 1 st.Loopnest.depth))
               nest.Loopnest.stmts)
        in
        Ok (nest, Some sched)
      end)
