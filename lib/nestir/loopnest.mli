(** Affine loop nests.

    A nest is a set of statements, each with its own depth (the nests
    may be non-perfect, as in the paper's Example 1), a rectangular
    iteration domain given by per-loop extents, and a list of affine
    array references. *)

type access_kind = Read | Write

type access = {
  array_name : string;
  map : Affine.t;
  kind : access_kind;
  label : string;  (** e.g. "F3", used in reports and tests *)
}

type stmt = {
  stmt_name : string;
  depth : int;
  extent : int array;  (** iteration domain [0, extent_k) per loop *)
  accesses : access list;
}

type array_decl = { array_name : string; dim : int }

type t = { nest_name : string; arrays : array_decl list; stmts : stmt list }

val make : name:string -> arrays:array_decl list -> stmts:stmt list -> t
(** Validates: every access targets a declared array, [map] input
    dimension equals the statement depth and output dimension equals
    the array dimension, extents are positive and match the depth.
    @raise Invalid_argument when inconsistent. *)

val access : array_name:string -> ?label:string -> access_kind -> Affine.t -> access

val find_array : t -> string -> array_decl
val find_stmt : t -> string -> stmt

val all_accesses : t -> (stmt * access) list
(** In program order. *)

val writes_to : t -> string -> (stmt * access) list

val iteration_count : stmt -> int

val pp : Format.formatter -> t -> unit
