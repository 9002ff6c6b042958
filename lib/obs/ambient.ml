(* What every recorder in this library shares: the one clock and the
   one per-domain context.  Internal: [Obs] does not re-export it.

   The context is the only [Domain.DLS] key in the library.  [worker]
   is the [Par] slot the domain is running ([None] outside a parallel
   region), [stack] the {!Profile.task} labels (innermost first) and
   [depth] the {!Obs.with_span} nesting level.  Recorded data lives in
   each module's own mutex-guarded store, never here. *)

let clock = ref Sys.time
let now_us () = !clock () *. 1e6

type t = { mutable worker : int option; mutable stack : string list; mutable depth : int }

let key : t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { worker = None; stack = []; depth = 0 })

let get () = Domain.DLS.get key

let with_worker slot f =
  let prev = get () in
  Domain.DLS.set key { worker = Some slot; stack = []; depth = 0 };
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f
