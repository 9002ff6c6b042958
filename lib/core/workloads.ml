open Nestir

type t = {
  name : string;
  description : string;
  nest : Loopnest.t;
  schedule : Schedule.t;
}

let with_parallel nest description =
  { name = nest.Loopnest.nest_name; description; nest;
    schedule = Schedule.all_parallel nest }

let all () =
  let e5 = Paper_examples.example5 () in
  [
    with_parallel (Paper_examples.example1 ())
      "the paper's motivating example (non-perfect nest, 9 accesses)";
    with_parallel (Paper_examples.example2_broadcast ())
      "broadcast template (Example 2)";
    with_parallel (Paper_examples.example3_gather ()) "gather template (Example 3)";
    with_parallel (Paper_examples.example4_reduction ())
      "reduction template (Example 4)";
    {
      name = e5.Loopnest.nest_name;
      description = "Platonoff comparison nest (Example 5, sequential outer loop)";
      nest = e5;
      schedule = Paper_examples.example5_schedule e5;
    };
    with_parallel (Paper_examples.matmul ()) "matrix-matrix product";
    with_parallel (Paper_examples.gauss ()) "Gaussian elimination update";
    with_parallel (Paper_examples.stencil ()) "5-point Jacobi stencil";
    with_parallel (Paper_examples.transpose ()) "matrix transposition";
    with_parallel (Paper_examples.lu ()) "LU factorization update (k-outer)";
    (let nest = Paper_examples.seidel () in
     {
       name = nest.Loopnest.nest_name;
       description = "Gauss-Seidel sweep (uniform dependences, Lamport schedule)";
       nest;
       schedule =
         (match Schedule.lamport nest with
         | Some s -> s
         | None -> Schedule.outer_sequential nest);
     });
  ]

let generated ~seed ~count =
  List.map
    (fun nest -> with_parallel nest "generated nest")
    (Gennest.generate_many ~seed ~count)

let find name = List.find (fun w -> w.name = name) (all ())

