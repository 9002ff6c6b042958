open Linalg
open Nestir

type access_traffic = {
  stmt : string;
  label : string;
  classification : string;
  messages : int;
}

type stats = {
  traffic : access_traffic list;
  total_messages : int;
  semantics_preserved : bool;
  local_accesses_silent : bool;
}

(* Deterministic value semantics: initial array contents and statement
   results are hashes, so any mix-up of elements or iterations changes
   the final state. *)
let initial_value name idx = Hashtbl.hash (name, Array.to_list idx)

let combine stmt iteration reads =
  Hashtbl.hash (stmt, Array.to_list iteration, reads)

type store = (string * int list, int) Hashtbl.t

let read_cell (store : store) name idx =
  match Hashtbl.find_opt store (name, Array.to_list idx) with
  | Some v -> v
  | None -> initial_value name idx

let write_cell (store : store) name idx v =
  Hashtbl.replace store (name, Array.to_list idx) v

let execute_instance (s : Loopnest.stmt) i ~on_access (store : store) =
  let reads =
    List.filter_map
      (fun (a : Loopnest.access) ->
        if a.Loopnest.kind = Loopnest.Read then begin
          on_access s a i;
          Some (read_cell store a.Loopnest.array_name (Affine.apply a.Loopnest.map i))
        end
        else None)
      s.Loopnest.accesses
  in
  let v = combine s.Loopnest.stmt_name i reads in
  List.iter
    (fun (a : Loopnest.access) ->
      if a.Loopnest.kind = Loopnest.Write then begin
        on_access s a i;
        write_cell store a.Loopnest.array_name (Affine.apply a.Loopnest.map i) v
      end)
    s.Loopnest.accesses

(* Execute the nest on a store, in program order (statement by
   statement, lexicographic iterations). *)
let execute (nest : Loopnest.t) ~(on_access : Loopnest.stmt -> Loopnest.access -> int array -> unit)
    (store : store) =
  List.iter
    (fun (s : Loopnest.stmt) ->
      Machine.Patterns.iter_box s.Loopnest.extent (fun i ->
          execute_instance s i ~on_access store))
    nest.Loopnest.stmts

(* Execute by increasing timestep; instances sharing a timestep run in
   reversed program order (adversarial within-timestep schedule). *)
let execute_by_schedule (nest : Loopnest.t) (sched : Schedule.t) ~on_access
    (store : store) =
  let instances = ref [] in
  List.iteri
    (fun si (s : Loopnest.stmt) ->
      let theta = Schedule.theta sched s.Loopnest.stmt_name in
      Machine.Patterns.iter_box s.Loopnest.extent (fun i ->
          instances :=
            (Array.to_list (Linalg.Mat.mul_vec theta i), si, s, i) :: !instances))
    nest.Loopnest.stmts;
  (* !instances is in reversed program order; a stable sort on
     (timestep, statement) therefore reverses the iteration order
     within one statement's timestep — adversarial, yet respecting the
     statement phases that make loop-independent dependences legal *)
  let sorted =
    List.stable_sort
      (fun (t1, s1, _, _) (t2, s2, _, _) -> compare (t1, s1) (t2, s2))
      !instances
  in
  List.iter (fun (_, _, s, i) -> execute_instance s i ~on_access store) sorted

let label_of (a : Loopnest.access) =
  if a.Loopnest.label = "" then a.Loopnest.array_name else a.Loopnest.label

let machine m =
  let pgrid = Array.make m 4 in
  let layout = Distrib.Layout.all_cyclic m in
  let topo = Machine.Topology.make pgrid in
  (* Bound the virtual coordinate space: wrap into a box large enough
     to keep distinct small coordinates distinct. *)
  let vbox = Array.map (fun p -> 64 * p) pgrid in
  let fold coords =
    let wrapped = Array.mapi (fun d x -> ((x mod vbox.(d)) + vbox.(d)) mod vbox.(d)) coords in
    Distrib.Layout.place layout ~vgrid:vbox ~topo wrapped
  in
  (topo, fold)

let run ?(order = `Program) (r : Pipeline.result) =
  let nest = r.Pipeline.nest in
  let _, fold = machine r.Pipeline.m in
  let alloc_opt v =
    try Some (Alignment.Alloc.alloc_of r.Pipeline.alloc v) with Not_found -> None
  in
  (* message counters per (stmt, label) *)
  let counts : (string * string, int) Hashtbl.t = Hashtbl.create 16 in
  let bump key =
    Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  in
  let on_access (s : Loopnest.stmt) (a : Loopnest.access) i =
    match
      ( alloc_opt (Alignment.Access_graph.Stmt_v s.Loopnest.stmt_name),
        alloc_opt (Alignment.Access_graph.Array_v a.Loopnest.array_name) )
    with
    | Some ms, Some mx ->
      let computer = fold (Mat.mul_vec ms i) in
      let owner = fold (Mat.mul_vec mx (Affine.apply a.Loopnest.map i)) in
      if computer <> owner then bump (s.Loopnest.stmt_name, label_of a)
    | _ -> ()
  in
  (* sequential reference *)
  let seq_store : store = Hashtbl.create 256 in
  execute nest ~on_access:(fun _ _ _ -> ()) seq_store;
  (* distributed run: instrumented placement, selected order *)
  let dist_store : store = Hashtbl.create 256 in
  (match order with
  | `Program -> execute nest ~on_access dist_store
  | `Schedule -> execute_by_schedule nest r.Pipeline.schedule ~on_access dist_store);
  let semantics_preserved =
    Hashtbl.length seq_store = Hashtbl.length dist_store
    && Hashtbl.fold
         (fun k v acc -> acc && Hashtbl.find_opt dist_store k = Some v)
         seq_store true
  in
  let traffic =
    List.map
      (fun (e : Commplan.entry) ->
        {
          stmt = e.Commplan.stmt;
          label = e.Commplan.label;
          classification = Commplan.classification_name e.Commplan.classification;
          messages =
            Option.value ~default:0
              (Hashtbl.find_opt counts (e.Commplan.stmt, e.Commplan.label));
        })
      r.Pipeline.plan
  in
  let local_accesses_silent =
    List.for_all
      (fun t -> (not (t.classification = "local")) || t.messages = 0)
      traffic
  in
  {
    traffic;
    total_messages = List.fold_left (fun acc t -> acc + t.messages) 0 traffic;
    semantics_preserved;
    local_accesses_silent;
  }
