(* Content-addressed memo tables, each one LRU shard behind its own
   lock.  The hot-path contract matches Obs: [find_opt] and [add]
   first test [enabled_flag], so a disabled build touches no table
   and takes no lock. *)

let enabled_flag = ref false
let enable () = enabled_flag := true
let disable () = enabled_flag := false
let enabled () = !enabled_flag

let scoped ?enable:want f =
  match want with
  | None -> f ()
  | Some v ->
    let prev = !enabled_flag in
    enabled_flag := v;
    Fun.protect ~finally:(fun () -> enabled_flag := prev) f

type stats = { hits : int; misses : int; evictions : int; entries : int }

(* ------------------------------------------------------------------ *)
(* LRU shard                                                           *)
(* ------------------------------------------------------------------ *)

(* Doubly-linked recency list threaded through the hash table's nodes:
   [first] is the most recently used entry, [last] the next eviction
   victim.  All operations are O(1). *)
type 'v node = {
  nkey : string;
  nvalue : 'v;
  mutable prev : 'v node option; (* towards [first] *)
  mutable next : 'v node option; (* towards [last] *)
}

type 'v shard = {
  tbl : (string, 'v node) Hashtbl.t;
  mutable first : 'v node option;
  mutable last : 'v node option;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_evictions : int;
}

let new_shard () =
  {
    tbl = Hashtbl.create 64;
    first = None;
    last = None;
    s_hits = 0;
    s_misses = 0;
    s_evictions = 0;
  }

let unlink sh n =
  (match n.prev with Some p -> p.next <- n.next | None -> sh.first <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> sh.last <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front sh n =
  n.prev <- None;
  n.next <- sh.first;
  (match sh.first with Some f -> f.prev <- Some n | None -> sh.last <- Some n);
  sh.first <- Some n

let touch sh n =
  if sh.first != Some n then begin
    unlink sh n;
    push_front sh n
  end

(* Insert or refresh [key]; evicts the tail when a fresh key would
   overflow [capacity].  The caller guarantees capacity >= 1. *)
let put sh ~capacity key value =
  match Hashtbl.find_opt sh.tbl key with
  | Some n ->
    (* same key: the value is a function of the key, keep the old node
       (values are equal by construction), just refresh recency *)
    touch sh n
  | None ->
    if Hashtbl.length sh.tbl >= capacity then begin
      (match sh.last with
      | Some victim ->
        unlink sh victim;
        Hashtbl.remove sh.tbl victim.nkey;
        sh.s_evictions <- sh.s_evictions + 1;
        Obs.incr "cache.evictions"
      | None -> ());
    end;
    let n = { nkey = key; nvalue = value; prev = None; next = None } in
    Hashtbl.replace sh.tbl key n;
    push_front sh n

let shard_clear sh =
  Hashtbl.reset sh.tbl;
  sh.first <- None;
  sh.last <- None;
  sh.s_hits <- 0;
  sh.s_misses <- 0;
  sh.s_evictions <- 0

(* entries oldest-first: replaying them through [put] in this order
   rebuilds the same recency order *)
let entries_oldest_first sh =
  let rec walk acc = function
    | None -> acc
    | Some n -> walk ((n.nkey, n.nvalue) :: acc) n.next
  in
  walk [] sh.first

(* ------------------------------------------------------------------ *)
(* Registry of tables                                                  *)
(* ------------------------------------------------------------------ *)

(* Everything the module-level operations (clear, stats, save, load)
   need from a table, with the value type hidden behind closures.
   Tests create tables dynamically, so the list is mutex-protected;
   each table takes its own lock. *)
type ops = {
  o_name : string;
  o_schema : string;
  o_clear : unit -> unit;
  o_stats : unit -> stats;
  (* persistence: marshalled (key, value) pairs, oldest-first *)
  o_dump : unit -> (string * string) list;
  o_absorb : (string * string) list -> unit;
}

let registry : ops list ref = ref []
let registry_mutex = Mutex.create ()

let registered () =
  Mutex.lock registry_mutex;
  let l = !registry in
  Mutex.unlock registry_mutex;
  List.rev l

let register o =
  Mutex.lock registry_mutex;
  if List.exists (fun r -> r.o_name = o.o_name) !registry then begin
    Mutex.unlock registry_mutex;
    invalid_arg ("Cache.Memo.create: duplicate table name " ^ o.o_name)
  end;
  registry := o :: !registry;
  Mutex.unlock registry_mutex

let clear () = List.iter (fun o -> o.o_clear ()) (registered ())

let stats () =
  List.fold_left
    (fun acc o ->
      let s = o.o_stats () in
      {
        hits = acc.hits + s.hits;
        misses = acc.misses + s.misses;
        evictions = acc.evictions + s.evictions;
        entries = acc.entries + s.entries;
      })
    { hits = 0; misses = 0; evictions = 0; entries = 0 }
    (registered ())

(* ------------------------------------------------------------------ *)
(* Memo tables                                                         *)
(* ------------------------------------------------------------------ *)

module Memo = struct
  type 'a t = { capacity : int; mu : Mutex.t; shard : 'a shard }

  let with_shard t f = Mutex.protect t.mu (fun () -> f t.shard)

  let stats t =
    with_shard t (fun sh ->
        {
          hits = sh.s_hits;
          misses = sh.s_misses;
          evictions = sh.s_evictions;
          entries = Hashtbl.length sh.tbl;
        })

  let create ?(capacity = 1024) ~name ~schema () =
    let t =
      { capacity = max 1 capacity; mu = Mutex.create (); shard = new_shard () }
    in
    register
      {
        o_name = name;
        o_schema = schema;
        o_clear = (fun () -> with_shard t shard_clear);
        o_stats = (fun () -> stats t);
        o_dump =
          (fun () ->
            (* list under the lock, marshal outside it: values are
               immutable once stored *)
            List.map
              (fun (k, v) -> (k, Marshal.to_string v []))
              (with_shard t entries_oldest_first));
        o_absorb =
          (fun pairs ->
            let pairs = List.map (fun (k, bytes) -> (k, Marshal.from_string bytes 0)) pairs in
            with_shard t (fun sh ->
                List.iter (fun (k, v) -> put sh ~capacity:t.capacity k v) pairs));
      };
    t

  let find_opt t key =
    if not !enabled_flag then None
    else begin
      let found =
        with_shard t (fun sh ->
            match Hashtbl.find_opt sh.tbl key with
            | Some n ->
              sh.s_hits <- sh.s_hits + 1;
              touch sh n;
              Some n.nvalue
            | None ->
              sh.s_misses <- sh.s_misses + 1;
              None)
      in
      Obs.incr "cache.lookups";
      Obs.incr (if Option.is_some found then "cache.hits" else "cache.misses");
      found
    end

  let add t ~key v =
    if !enabled_flag then with_shard t (fun sh -> put sh ~capacity:t.capacity key v)

  let mem t key = with_shard t (fun sh -> Hashtbl.mem sh.tbl key)
  let length t = with_shard t (fun sh -> Hashtbl.length sh.tbl)
  let capacity t = t.capacity

  let keys t =
    let rec walk acc = function
      | None -> List.rev acc
      | Some n -> walk (n.nkey :: acc) n.next
    in
    with_shard t (fun sh -> walk [] sh.first)
end

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let magic = "RESOPTCACHE1"

(* FNV-1a over OCaml's 63-bit ints (the offset basis is the 64-bit one
   with its top nibble dropped; any fixed odd seed detects corruption
   equally well as long as save and load agree). *)
let fnv1a s =
  let h = ref 0xbf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h land max_int

type section = { p_name : string; p_schema : string; p_pairs : (string * string) list }

(* Crash safety: the file is written beside its destination and moved
   into place with [Sys.rename], which is atomic on POSIX within one
   directory.  A crash (even kill -9) mid-save therefore leaves either
   the previous complete file or an orphaned [.tmp] — never a
   truncated cache that [load] would have to discard. *)
let save path =
  let sections =
    List.map
      (fun o -> { p_name = o.o_name; p_schema = o.o_schema; p_pairs = o.o_dump () })
      (registered ())
  in
  let payload = Marshal.to_string sections [] in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
         Printf.fprintf oc "%s\n%016x\n" magic (fnv1a payload);
         output_string oc payload)
   with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path

let load path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic -> (
    let parse () =
      let line1 = input_line ic in
      if line1 <> magic then None
      else begin
        let sum = input_line ic in
        let len = in_channel_length ic - pos_in ic in
        let payload = really_input_string ic len in
        if Printf.sprintf "%016x" (fnv1a payload) <> sum then None
        else (Marshal.from_string payload 0 : section list) |> Option.some
      end
    in
    (* a bad file of any flavour — truncated header, checksum
       mismatch, unmarshalable payload — degrades to a cold cache,
       but visibly: the discard feeds the [cache.load_corrupt]
       counter (the file existed, so silence would hide real loss) *)
    let corrupt () =
      Obs.incr "cache.load_corrupt";
      false
    in
    match Fun.protect ~finally:(fun () -> close_in ic) parse with
    | exception _ -> corrupt ()
    | None -> corrupt ()
    | Some sections ->
      let tables = registered () in
      List.iter
        (fun s ->
          match
            List.find_opt
              (fun o -> o.o_name = s.p_name && o.o_schema = s.p_schema)
              tables
          with
          | Some o -> (try o.o_absorb s.p_pairs with _ -> ())
          | None -> () (* stale or foreign section: skip *))
        sections;
      true)
