open Linalg

let f1 = Mat.of_lists [ [ 1; 0 ]; [ 0; 1 ]; [ 0; 0 ] ]
let f2 = Mat.of_lists [ [ 1; 1 ]; [ 0; 1 ] ]
let f3 = Mat.of_lists [ [ 5; 3 ]; [ -7; -4 ] ]
let f4 = Mat.of_lists [ [ 1; 0 ]; [ 0; 1 ]; [ 0; 0 ] ]
let f5 = Mat.identity 3
let f6 = Mat.of_lists [ [ 1; 2; 0 ]; [ 0; 0; 1 ] ]
let f7 = Mat.of_lists [ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 0; 1; 1 ] ]
let f8 = Mat.of_lists [ [ 1; 1; 0 ]; [ 0; 1; 0 ] ]
let f9 = Mat.of_lists [ [ 1; 1; 0 ]; [ 0; 0; 0 ] ]

let example1_f = function
  | 1 -> f1
  | 2 -> f2
  | 3 -> f3
  | 4 -> f4
  | 5 -> f5
  | 6 -> f6
  | 7 -> f7
  | 8 -> f8
  | 9 -> f9
  | k -> invalid_arg (Printf.sprintf "Paper_examples.example1_f: F%d" k)

let example1 () =
  let open Loopnest in
  make ~name:"example1"
    ~arrays:
      [
        { array_name = "a"; dim = 2 };
        { array_name = "b"; dim = 3 };
        { array_name = "c"; dim = 3 };
      ]
    ~stmts:
      [
        {
          stmt_name = "S1";
          depth = 2;
          extent = [| 8; 8 |];
          accesses =
            [
              access ~array_name:"b" ~label:"F1" Write (Affine.make f1 [| 0; 0; 0 |]);
              access ~array_name:"a" ~label:"F2" Read (Affine.make f2 [| 1; 0 |]);
              access ~array_name:"a" ~label:"F3" Read (Affine.make f3 [| 0; 2 |]);
              access ~array_name:"c" ~label:"F4" Read (Affine.make f4 [| 0; 0; 0 |]);
            ];
        };
        {
          stmt_name = "S2";
          depth = 3;
          extent = [| 8; 8; 16 |];
          accesses =
            [
              access ~array_name:"b" ~label:"F5" Write (Affine.make f5 [| 0; 0; 1 |]);
              access ~array_name:"a" ~label:"F6" Read (Affine.make f6 [| 0; 1 |]);
            ];
        };
        {
          stmt_name = "S3";
          depth = 3;
          extent = [| 8; 8; 16 |];
          accesses =
            [
              access ~array_name:"c" ~label:"F7" Write (Affine.make f7 [| 0; 0; 1 |]);
              access ~array_name:"a" ~label:"F8" Read (Affine.make f8 [| 2; 0 |]);
              access ~array_name:"a" ~label:"F9" Read (Affine.make f9 [| 0; 0 |]);
            ];
        };
      ]

let example2_broadcast () =
  let open Loopnest in
  make ~name:"example2"
    ~arrays:[ { array_name = "a"; dim = 1 }; { array_name = "x"; dim = 2 } ]
    ~stmts:
      [
        {
          stmt_name = "S";
          depth = 2;
          extent = [| 8; 8 |];
          accesses =
            [
              access ~array_name:"x" Write (Affine.identity 2);
              access ~array_name:"a" ~label:"Fa" Read
                (Affine.of_lists [ [ 1; 0 ] ] [ 0 ]);
            ];
        };
      ]

let example3_gather () =
  let open Loopnest in
  make ~name:"example3"
    ~arrays:[ { array_name = "a"; dim = 1 }; { array_name = "x"; dim = 2 } ]
    ~stmts:
      [
        {
          stmt_name = "S";
          depth = 2;
          extent = [| 8; 8 |];
          accesses =
            [
              access ~array_name:"a" ~label:"Fa" Write
                (Affine.of_lists [ [ 1; 0 ] ] [ 0 ]);
              access ~array_name:"x" Read (Affine.identity 2);
            ];
        };
      ]

let example4_reduction () =
  let open Loopnest in
  make ~name:"example4"
    ~arrays:[ { array_name = "s"; dim = 1 }; { array_name = "b"; dim = 2 } ]
    ~stmts:
      [
        {
          stmt_name = "S";
          depth = 2;
          extent = [| 8; 8 |];
          accesses =
            [
              access ~array_name:"s" Write (Affine.of_lists [ [ 0; 0 ] ] [ 0 ]);
              access ~array_name:"s" Read (Affine.of_lists [ [ 0; 0 ] ] [ 0 ]);
              access ~array_name:"b" ~label:"Fb" Read (Affine.identity 2);
            ];
        };
      ]

let example5 ?(n = 8) () =
  let open Loopnest in
  make ~name:"example5"
    ~arrays:[ { array_name = "a"; dim = 4 }; { array_name = "b"; dim = 3 } ]
    ~stmts:
      [
        {
          stmt_name = "S";
          depth = 4;
          extent = [| n; n; n; n |];
          accesses =
            [
              access ~array_name:"a" ~label:"Fa" Write (Affine.identity 4);
              access ~array_name:"b" ~label:"Fb" Read
                (Affine.of_lists
                   [ [ 1; 0; 0; 0 ]; [ 0; 1; 0; 0 ]; [ 0; 0; 1; 0 ] ]
                   [ 0; 0; 0 ]);
            ];
        };
      ]

let example5_schedule nest = Schedule.outer_sequential nest

let matmul ?(n = 8) () =
  let open Loopnest in
  make ~name:"matmul"
    ~arrays:
      [
        { array_name = "A"; dim = 2 };
        { array_name = "B"; dim = 2 };
        { array_name = "C"; dim = 2 };
      ]
    ~stmts:
      [
        {
          stmt_name = "S";
          depth = 3;
          extent = [| n; n; n |];
          accesses =
            [
              access ~array_name:"C" ~label:"Fc_w" Write
                (Affine.of_lists [ [ 1; 0; 0 ]; [ 0; 1; 0 ] ] [ 0; 0 ]);
              access ~array_name:"C" ~label:"Fc_r" Read
                (Affine.of_lists [ [ 1; 0; 0 ]; [ 0; 1; 0 ] ] [ 0; 0 ]);
              access ~array_name:"A" ~label:"Fa" Read
                (Affine.of_lists [ [ 1; 0; 0 ]; [ 0; 0; 1 ] ] [ 0; 0 ]);
              access ~array_name:"B" ~label:"Fb" Read
                (Affine.of_lists [ [ 0; 0; 1 ]; [ 0; 1; 0 ] ] [ 0; 0 ]);
            ];
        };
      ]

let gauss () =
  let open Loopnest in
  make ~name:"gauss"
    ~arrays:[ { array_name = "A"; dim = 2 }; { array_name = "P"; dim = 2 } ]
    ~stmts:
      [
        {
          stmt_name = "S";
          depth = 3;
          extent = [| 8; 8; 8 |];
          accesses =
            [
              access ~array_name:"A" ~label:"Fw" Write
                (Affine.of_lists [ [ 0; 1; 0 ]; [ 0; 0; 1 ] ] [ 0; 0 ]);
              access ~array_name:"A" ~label:"Frow" Read
                (Affine.of_lists [ [ 1; 0; 0 ]; [ 0; 0; 1 ] ] [ 0; 0 ]);
              access ~array_name:"P" ~label:"Fcol" Read
                (Affine.of_lists [ [ 0; 1; 0 ]; [ 1; 0; 0 ] ] [ 0; 0 ]);
            ];
        };
      ]

let lu () =
  let open Loopnest in
  make ~name:"lu"
    ~arrays:[ { array_name = "A"; dim = 2 } ]
    ~stmts:
      [
        {
          stmt_name = "S";
          depth = 3;
          (* iteration order (k, i, j) *)
          extent = [| 8; 8; 8 |];
          accesses =
            [
              access ~array_name:"A" ~label:"Fw" Write
                (Affine.of_lists [ [ 0; 1; 0 ]; [ 0; 0; 1 ] ] [ 0; 0 ]);
              access ~array_name:"A" ~label:"Fr" Read
                (Affine.of_lists [ [ 0; 1; 0 ]; [ 0; 0; 1 ] ] [ 0; 0 ]);
              access ~array_name:"A" ~label:"Fcol" Read
                (Affine.of_lists [ [ 0; 1; 0 ]; [ 1; 0; 0 ] ] [ 0; 0 ]);
              access ~array_name:"A" ~label:"Frow" Read
                (Affine.of_lists [ [ 1; 0; 0 ]; [ 0; 0; 1 ] ] [ 0; 0 ]);
            ];
        };
      ]

let transpose () =
  let open Loopnest in
  let swap = Affine.of_lists [ [ 0; 1 ]; [ 1; 0 ] ] [ 0; 0 ] in
  (* S2 aligns A, B and C identically, so S1's transposed read cannot
     also be local: its data-flow matrix is the transposition *)
  make ~name:"transpose"
    ~arrays:
      [
        { array_name = "A"; dim = 2 };
        { array_name = "B"; dim = 2 };
        { array_name = "C"; dim = 2 };
      ]
    ~stmts:
      [
        {
          stmt_name = "S1";
          depth = 2;
          extent = [| 8; 8 |];
          accesses =
            [
              access ~array_name:"B" ~label:"Fw" Write (Affine.identity 2);
              access ~array_name:"A" ~label:"Fr" Read swap;
            ];
        };
        {
          stmt_name = "S2";
          depth = 2;
          extent = [| 8; 8 |];
          accesses =
            [
              access ~array_name:"C" ~label:"Gw" Write (Affine.identity 2);
              access ~array_name:"B" ~label:"Gb" Read (Affine.identity 2);
              access ~array_name:"A" ~label:"Ga" Read (Affine.identity 2);
            ];
        };
      ]

let seidel () =
  let open Loopnest in
  let shift di dj = Affine.make (Mat.identity 2) [| di; dj |] in
  make ~name:"seidel"
    ~arrays:[ { array_name = "A"; dim = 2 } ]
    ~stmts:
      [
        {
          stmt_name = "S";
          depth = 2;
          extent = [| 8; 8 |];
          accesses =
            [
              access ~array_name:"A" ~label:"Fw" Write (shift 0 0);
              access ~array_name:"A" ~label:"Fn" Read (shift (-1) 0);
              access ~array_name:"A" ~label:"Fww" Read (shift 0 (-1));
            ];
        };
      ]

let stencil ?(n = 8) () =
  let open Loopnest in
  let shift di dj = Affine.make (Mat.identity 2) [| di; dj |] in
  make ~name:"stencil"
    ~arrays:[ { array_name = "A"; dim = 2 }; { array_name = "B"; dim = 2 } ]
    ~stmts:
      [
        {
          stmt_name = "S";
          depth = 2;
          extent = [| n; n |];
          accesses =
            [
              access ~array_name:"B" ~label:"Fw" Write (shift 0 0);
              access ~array_name:"A" ~label:"Fn" Read (shift (-1) 0);
              access ~array_name:"A" ~label:"Fs" Read (shift 1 0);
              access ~array_name:"A" ~label:"Fe" Read (shift 0 1);
              access ~array_name:"A" ~label:"Fww" Read (shift 0 (-1));
            ];
        };
      ]
