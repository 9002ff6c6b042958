type access_kind = Read | Write

type access = {
  array_name : string;
  map : Affine.t;
  kind : access_kind;
  label : string;
}

type stmt = {
  stmt_name : string;
  depth : int;
  extent : int array;
  accesses : access list;
}

type array_decl = { array_name : string; dim : int }

type t = { nest_name : string; arrays : array_decl list; stmts : stmt list }

let access ~array_name ?(label = "") kind map = { array_name; map; kind; label }

let find_array t name =
  match List.find_opt (fun a -> a.array_name = name) t.arrays with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Loopnest.find_array: unknown array %s" name)

let find_stmt t name =
  match List.find_opt (fun s -> s.stmt_name = name) t.stmts with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Loopnest.find_stmt: unknown statement %s" name)

let make ~name ~arrays ~stmts =
  let t = { nest_name = name; arrays; stmts } in
  List.iter
    (fun s ->
      if s.depth <= 0 then
        invalid_arg (Printf.sprintf "Loopnest.make: %s has non-positive depth" s.stmt_name);
      if Array.length s.extent <> s.depth then
        invalid_arg
          (Printf.sprintf "Loopnest.make: %s extent length does not match depth"
             s.stmt_name);
      Array.iter
        (fun e ->
          if e <= 0 then
            invalid_arg
              (Printf.sprintf "Loopnest.make: %s has non-positive extent" s.stmt_name))
        s.extent;
      List.iter
        (fun (a : access) ->
          let arr = find_array t a.array_name in
          if Affine.dim_in a.map <> s.depth then
            invalid_arg
              (Printf.sprintf
                 "Loopnest.make: access %s/%s input dim %d does not match depth %d"
                 s.stmt_name a.array_name (Affine.dim_in a.map) s.depth);
          if Affine.dim_out a.map <> arr.dim then
            invalid_arg
              (Printf.sprintf
                 "Loopnest.make: access %s/%s output dim %d does not match array dim %d"
                 s.stmt_name a.array_name (Affine.dim_out a.map) arr.dim))
        s.accesses)
    stmts;
  t

let all_accesses t =
  List.concat_map (fun s -> List.map (fun a -> (s, a)) s.accesses) t.stmts

let writes_to t name =
  List.filter (fun (_, a) -> a.kind = Write && a.array_name = name) (all_accesses t)

let iteration_count s = Array.fold_left ( * ) 1 s.extent

let pp ppf t =
  Format.fprintf ppf "nest %s@\n" t.nest_name;
  List.iter
    (fun (a : array_decl) -> Format.fprintf ppf "  array %s : %d-D@\n" a.array_name a.dim)
    t.arrays;
  List.iter
    (fun s ->
      Format.fprintf ppf "  stmt %s (depth %d, extent %s)@\n" s.stmt_name s.depth
        (String.concat "x" (Array.to_list (Array.map string_of_int s.extent)));
      List.iter
        (fun a ->
          Format.fprintf ppf "    %s %s%s[%a]@\n"
            (match a.kind with Read -> "read " | Write -> "write")
            (if a.label = "" then "" else a.label ^ ": ")
            a.array_name Affine.pp a.map)
        s.accesses)
    t.stmts
