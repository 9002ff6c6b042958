(* End-to-end fuzzing: random nests through the whole optimizer,
   checked against the brute-force oracle and the distributed
   execution. *)

let prop ?(count = 150) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let arb_seed =
  QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100_000)

let fuzz_props =
  [
    prop "pipeline output always passes the brute-force oracle" arb_seed
      (fun seed ->
        let nest = Reference.generated ~seed in
        match Resopt.Pipeline.run ~m:2 nest with
        | exception Failure _ -> true (* no full-rank materialization *)
        | r ->
          Reference.verify_alloc r.Resopt.Pipeline.alloc
          && Resopt.Validate.is_valid r);
    prop ~count:60 "distributed execution preserves semantics" arb_seed
      (fun seed ->
        let nest = Reference.generated ~seed:(seed + 1_000_000) in
        match Resopt.Pipeline.run ~m:2 nest with
        | exception Failure _ -> true
        | r ->
          let s = Resopt.Distexec.run r in
          s.Resopt.Distexec.semantics_preserved
          && s.Resopt.Distexec.local_accesses_silent);
    prop ~count:80 "m = 1 and m = 3 also hold" arb_seed (fun seed ->
        let nest = Reference.generated ~seed:(seed + 2_000_000) in
        List.for_all
          (fun m ->
            match Resopt.Pipeline.run ~m nest with
            | exception Failure _ -> true
            | r -> Resopt.Validate.is_valid r)
          [ 1; 3 ]);
    prop ~count:200 "generated nests round-trip through the DSL" arb_seed
      (fun seed ->
        let nest = Reference.generated ~seed:(seed + 4_000_000) in
        let txt = Nestir.Dsl.print_with_schedule nest None in
        match Nestir.Dsl.parse txt with
        | Error _ -> false
        | Ok nest2 -> Nestir.Dsl.print_with_schedule nest2 None = txt);
    prop ~count:100 "plans are complete" arb_seed (fun seed ->
        let nest = Reference.generated ~seed:(seed + 3_000_000) in
        match Resopt.Pipeline.run ~m:2 nest with
        | exception Failure _ -> true
        | r ->
          List.length r.Resopt.Pipeline.plan
          = List.length (Nestir.Loopnest.all_accesses nest));
  ]

(* Generator fan-out: the same random nests, produced and optimized
   across domains through Par, must agree with the sequential run in
   every observable — parallelism may change wall-clock only. *)
let par_props =
  let nest_seeds seed k = List.init k (fun i -> seed + (i * 7919)) in
  [
    prop ~count:15 "parallel nest generation matches sequential" arb_seed
      (fun seed ->
        let seeds = nest_seeds seed 24 in
        let print s = Nestir.Dsl.print_with_schedule (Reference.generated ~seed:s) None in
        let sequential = List.map print seeds in
        Reference.with_pool ~jobs:4 (fun pool ->
            Par.map pool print seeds = sequential));
    prop ~count:8 "parallel pipeline verdicts match sequential" arb_seed
      (fun seed ->
        let seeds = nest_seeds (seed + 5_000_000) 12 in
        let verdict s =
          let nest = Reference.generated ~seed:s in
          match Resopt.Pipeline.run ~m:2 nest with
          | exception Failure _ -> None
          | r ->
            Some
              ( Resopt.Pipeline.non_local r,
                Resopt.Validate.is_valid r,
                List.length r.Resopt.Pipeline.plan )
        in
        let sequential = List.map verdict seeds in
        Reference.with_pool ~jobs:4 (fun pool ->
            Par.map pool verdict seeds = sequential));
  ]

let () =
  Alcotest.run "fuzz" [ ("pipeline", fuzz_props); ("parallel", par_props) ]
