(* Tests for Sv_interp: expression/statement semantics, dialect builtins,
   coverage recording, error handling, and the full-corpus verification
   runs (the mini-apps' built-in checks). *)

module Ic = Sv_interp.Interp_c
module If_ = Sv_interp.Interp_f
module Coverage = Sv_util.Coverage

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let run_c ?max_steps src =
  Ic.run ?max_steps [ Sv_lang_c.Parser.parse ~file:"t.cpp" src ]

let result_int src =
  match (run_c src).Ic.result with
  | Ok (Ic.VInt n) -> n
  | Ok v -> Alcotest.failf "expected int, got %s" (Format.asprintf "%a" Ic.pp_value v)
  | Error e -> Alcotest.failf "runtime error: %s" e

let main body = Printf.sprintf "int main() { %s }" body

(* --- expressions and statements --- *)

let test_arith () =
  checki "int arith" 7 (result_int (main "return 1 + 2 * 3;"));
  checki "division" 3 (result_int (main "return 10 / 3;"));
  checki "modulo" 1 (result_int (main "return 10 % 3;"));
  checki "bit ops" 6 (result_int (main "return (3 | 4) & 6;"));
  checki "shifts" 20 (result_int (main "return 5 << 2;"));
  checki "unary minus" (-4) (result_int (main "return -4;"));
  checki "comparison" 1 (result_int (main "return (3 < 4) ? 1 : 0;"));
  checki "float to int return" 2 (result_int (main "double x = 2.5; return (int)x;"))

let test_short_circuit () =
  (* the right operand must not evaluate (it would divide by zero) *)
  checki "&& shortcuts" 0 (result_int (main "int z = 0; return (z != 0 && 1 / z > 0) ? 1 : 0;"));
  checki "|| shortcuts" 1 (result_int (main "int z = 0; return (z == 0 || 1 / z > 0) ? 1 : 0;"))

let test_control_flow () =
  checki "while" 10 (result_int (main "int s = 0; int i = 0; while (i < 4) { s += i; i++; } return s + 4;"));
  checki "do-while" 1 (result_int (main "int i = 0; do { i++; } while (i < 1); return i;"));
  checki "for with break" 3 (result_int (main "int s = 0; for (int i = 0; i < 10; i++) { if (i == 3) { break; } s = i + 1; } return s;"));
  checki "continue" 12 (result_int (main "int s = 0; for (int i = 0; i < 6; i++) { if (i % 2 == 0) { continue; } s += i + 1; } return s;"));
  checki "nested if" 5 (result_int (main "int x = 2; if (x > 1) { if (x > 3) { return 9; } return 5; } return 0;"))

let test_functions_and_recursion () =
  checki "call" 9 (result_int "int sq(int x) { return x * x; } int main() { return sq(3); }");
  checki "recursion" 120
    (result_int "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); } int main() { return fact(5); }")

let test_arrays_and_pointers () =
  checki "new/index" 42 (result_int (main "double *a = new double[4]; a[2] = 42.0; return (int)a[2];"));
  checki "int arrays" 5 (result_int (main "int *v = new int[3]; v[0] = 5; return v[0];"));
  checki "fixed arrays" 3 (result_int (main "double t[8]; t[7] = 3.0; return (int)t[7];"));
  checki "addr-of and deref" 8 (result_int (main "int x = 3; int *p = &x; *p = 8; return x;"))

let test_structs () =
  checki "field access" 4
    (result_int "struct P { int x; int y; }; int main() { P p; p.x = 4; return p.x; }")

let test_closures () =
  checki "lambda captures environment" 30
    (result_int (main "int acc = 0; auto f = [=](int i) { acc += i; }; f(10); f(20); return acc;"))

let test_out_of_bounds () =
  match (run_c (main "double *a = new double[2]; a[5] = 1.0; return 0;")).Ic.result with
  | Error e -> checkb "reports bounds" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "expected out-of-bounds error"

let test_unknown_name () =
  match (run_c (main "return nope;")).Ic.result with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unknown-name error"

let test_step_budget () =
  match (run_c ~max_steps:100 (main "while (true) { int x = 0; } return 0;")).Ic.result with
  | Error e -> checkb "budget message" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "expected step-budget error"

let test_step_budget_location () =
  let o =
    run_c ~max_steps:100
      "int main() {\n  int s = 0;\n  while (true) {\n    s = s + 1;\n  }\n  return s;\n}"
  in
  Alcotest.(check (result reject string))
    "message and location"
    (Error "step budget exhausted (100) at t.cpp:4:6")
    (Result.map (fun _ -> ()) o.Ic.result);
  checki "steps at exhaustion" 101 o.Ic.steps

(* Each program never ends by itself; the budget or the call-depth limit
   must end it, fast. One test case per program. *)
let nonterminating_cases =
  List.map
    (fun (what, max_steps, src, expect) ->
      Alcotest.test_case what `Quick (fun () ->
          let t0 = Unix.gettimeofday () in
          let o = run_c ?max_steps src in
          let dt = Unix.gettimeofday () -. t0 in
          (match o.Ic.result with
          | Error e -> checkb e true (Sv_util.Xstring.starts_with ~prefix:expect e)
          | Ok _ -> Alcotest.fail "expected an error");
          checkb (Printf.sprintf "ends within 1 s (%.3f s)" dt) true (dt < 1.0)))
    [
      ("empty for(;;)", Some 1000, main "for (;;) { } return 0;", "step budget exhausted (1000)");
      ("empty while(1)", Some 1000, main "while (1) { } return 0;", "step budget exhausted (1000)");
      ("empty do-while", Some 1000, main "do { } while (1); return 0;", "step budget exhausted (1000)");
      ( "empty parallel_for body",
        Some 1000,
        main "Kokkos::parallel_for(1000000000, [=](int i) { }); return 0;",
        "step budget exhausted (1000)" );
      ( "unbounded recursion",
        None,
        "int f(int n) { return f(n + 1); } int main() { return f(0); }",
        Printf.sprintf "call depth limit exceeded (%d)" Ic.max_call_depth );
    ]

(* --- scoping: the rules every port and mutant relies on --- *)

let test_scope_use_before_inner_decl () =
  checki "block: outer x until the inner declaration" 121
    (result_int (main "int x = 1; int r = 0; { r = x; int x = 2; r = r * 10 + x; } return r * 10 + x;"));
  checki "every loop iteration starts from the outer x" 151515
    (result_int
       (main
          "int x = 1; int s = 0; for (int i = 0; i < 3; i++) { s = s * 10 + x; int x = 5; s = s * 10 + x; } return s;"))

let test_scope_redeclaration () =
  checki "fresh cell; &x keeps the old one" 27
    (result_int (main "int x = 1; int *p = &x; int x = 2; *p = 7; return x * 10 + *p;"))

let test_scope_for_init () =
  checki "body declaration does not replace the loop variable" 30
    (result_int (main "int s = 0; for (int i = 0; i < 3; i++) { int i = 10; s = s + i; } return s;"))

let test_scope_lambda_late_binding () =
  checki "assignment after creation is seen" 5
    (result_int (main "int x = 1; auto f = [=]() { return x; }; x = 5; return f();"));
  checki "same-scope redeclaration after creation is seen" 2
    (result_int (main "int x = 1; auto f = [=]() { return x; }; int x = 2; return f();"));
  checki "a later declaration is seen only once it has run" 75
    (result_int
       "int y = 7; int main() { auto f = [=]() { return y; }; int r = f(); int y = 5; return r * 10 + f(); }");
  checki "each loop iteration starts without the body's declarations" 7071
    (result_int
       "int y = 7; int main() { int s = 0; for (int i = 0; i < 2; i++) { auto f = [=]() { return y; }; s = s * 10 + f(); int y = i; s = s * 10 + f(); } return s; }")

let test_scope_reference_params () =
  checki "T& aliases a pointer argument, T copies it" 2
    (result_int
       "void inc(int &v) { v = v + 1; } void nop(int v) { v = 9; } int main() { int x = 1; int *p = &x; inc(p); nop(p); return x; }")

let test_scope_thread_indices () =
  checki "blockIdx/threadIdx fresh for every thread" 12012
    (result_int
       {|
__global__ void k(int *out) {
  out[blockIdx.x * blockDim.x + threadIdx.x] = threadIdx.x;
  threadIdx.x = 100;
}
int main() {
  int *o = new int[6];
  k<<<2, 3>>>(o);
  int s = 0;
  for (int i = 0; i < 6; i++) { s = s * 10 + o[i]; }
  return s;
}
|})

(* --- run never raises: every bad access is a located error, one test
   case per path --- *)

let located_error_cases =
  List.map
    (fun (what, src, expect) ->
      Alcotest.test_case what `Quick (fun () ->
          match run_c src with
          | { Ic.result = Error e; _ } -> Alcotest.(check string) "error" expect e
          | { Ic.result = Ok _; _ } -> Alcotest.fail "expected an error"
          | exception ex -> Alcotest.failf "raised %s" (Printexc.to_string ex)))
    [
      ( "Kokkos view read past the end",
        main "Kokkos::View<double*> a(\"a\", 3); double x = a(5); return 0;",
        "index 5 out of bounds [0,3) at t.cpp:1:57" );
      ( "Kokkos view write past the end",
        main "Kokkos::View<double*> a(\"a\", 3); a(5) = 1.0; return 0;",
        "index 5 out of bounds [0,3) at t.cpp:1:46" );
      ( "read through double** past the end",
        main "double *a = new double[4]; double **p = &a; double x = p[7]; return 0;",
        "index 7 out of bounds [0,4) at t.cpp:1:68" );
      ( "write through double** past the end",
        main "double *a = new double[4]; double **p = &a; p[7] = 1.0; return 0;",
        "index 7 out of bounds [0,4) at t.cpp:1:57" );
      ( "*a on a malloc(0) array",
        main "double *a = (double *)malloc(0); double x = *a; return 0;",
        "index 0 out of bounds [0,0) at t.cpp:1:57" );
      ( "new double[n] with n < 0",
        main "int n = -1; double *a = new double[n]; return 0;",
        "negative array size -1 at t.cpp:1:37" );
      ( "malloc of a negative size",
        main "double *a = (double *)malloc(-8); return 0;",
        "negative array size -1 at t.cpp:1:35" );
      ( "kernel launch without a block size",
        "__global__ void k(double *a) { } int main() { double *a; k<<<1>>>(a); return 0; }",
        "kernel launch expects <<<grid, block>>> at t.cpp:1:57" );
    ]

let test_printf_formats () =
  let o = run_c (main "printf(\"i=%d f=%f s=%s%%\\n\", 42, 1.5, \"x\"); return 0;") in
  Alcotest.(check string) "formatted" "i=42 f=1.500000 s=x%\n" o.Ic.output

(* --- dialect builtins --- *)

let test_cuda_semantics () =
  checki "grid iteration covers all indices" 0
    (result_int
       {|
__global__ void fill(double *a, int n) {
  int i = blockDim.x * blockIdx.x + threadIdx.x;
  if (i < n) { a[i] = (double)i; }
}
int main() {
  int n = 100;
  double *a;
  cudaMalloc((void **)&a, n * sizeof(double));
  fill<<<(n + 31) / 32, 32>>>(a, n);
  for (int i = 0; i < n; i++) {
    if (a[i] != (double)i) { return 1; }
  }
  return 0;
}
|})

let test_sycl_semantics () =
  checki "queue + usm" 0
    (result_int
       {|
int main() {
  int n = 16;
  sycl::queue q;
  double *a = (double *)sycl::malloc_shared(n * sizeof(double), q);
  q.parallel_for(sycl::range<1>(n), [=](sycl::id<1> i) { a[i] = 2.0; });
  q.wait();
  double s = 0.0;
  for (int i = 0; i < n; i++) { s += a[i]; }
  sycl::free(a, q);
  return (s == 32.0) ? 0 : 1;
}
|})

let test_kokkos_semantics () =
  checki "views + reduce" 0
    (result_int
       {|
int main() {
  Kokkos::initialize();
  int n = 8;
  Kokkos::View<double*> v("v", n);
  Kokkos::parallel_for("fill", n, [=](const int i) { v(i) = 3.0; });
  double sum = 0.0;
  Kokkos::parallel_reduce("sum", n, [=](const int i, double &acc) { acc += v(i); }, &sum);
  Kokkos::finalize();
  return (sum == 24.0) ? 0 : 1;
}
|})

let test_tbb_semantics () =
  checki "blocked range" 0
    (result_int
       {|
int main() {
  int n = 10;
  double *a = new double[n];
  tbb::parallel_for(tbb::blocked_range<int>(0, n), [=](tbb::blocked_range<int> r) {
    for (int i = r.begin(); i < r.end(); i++) { a[i] = 1.0; }
  });
  double s = 0.0;
  for (int i = 0; i < n; i++) { s += a[i]; }
  return (s == 10.0) ? 0 : 1;
}
|})

let test_stdpar_semantics () =
  checki "for_each + transform_reduce" 0
    (result_int
       {|
int main() {
  int n = 10;
  double *a = new double[n];
  std::for_each(std::execution::par_unseq, counting_iterator(0), counting_iterator(n),
    [=](int i) { a[i] = (double)i; });
  double s = std::transform_reduce(std::execution::par_unseq, counting_iterator(0),
    counting_iterator(n), 0.0,
    [=](double x, double y) { return x + y; }, [=](int i) { return a[i]; });
  return (s == 45.0) ? 0 : 1;
}
|})

let test_raja_semantics () =
  checki "forall + reducer" 0
    (result_int
       {|
int main() {
  int n = 12;
  double *a = new double[n];
  RAJA::forall<RAJA::omp_parallel_for_exec>(RAJA::RangeSegment(0, n), [=](int i) {
    a[i] = 2.0;
  });
  RAJA::ReduceSum<RAJA::omp_reduce, double> total(0.0);
  RAJA::forall<RAJA::omp_parallel_for_exec>(RAJA::RangeSegment(0, n), [=](int i) {
    total += a[i];
  });
  double sum = total.get();
  return (sum == 24.0) ? 0 : 1;
}
|})

let test_multi_unit_program () =
  let tu1 =
    Sv_lang_c.Parser.parse ~file:"main.cpp"
      "double helper(double x);\nint main() { return (helper(3.0) == 9.0) ? 0 : 1; }"
  in
  let tu2 =
    Sv_lang_c.Parser.parse ~file:"helper.cpp"
      "double helper(double x) { return x * x; }"
  in
  (match (Ic.run [ tu1; tu2 ]).Ic.result with
  | Ok (Ic.VInt 0) -> ()
  | Ok v -> Alcotest.failf "unexpected result %s" (Format.asprintf "%a" Ic.pp_value v)
  | Error e -> Alcotest.fail e);
  (* coverage lands in the right files *)
  let o = Ic.run [ tu1; tu2 ] in
  checkb "helper file covered" true
    (Coverage.lines_hit o.Ic.coverage ~file:"helper.cpp" <> [])

let test_struct_constructor_args () =
  checki "positional construction" 7
    (result_int
       "struct P { int x; int y; }; int main() { P p(3, 4); return p.x + p.y; }")

let test_ternary_and_casts () =
  checki "ternary picks branch" 5 (result_int (main "int x = 2; return x > 1 ? 5 : 9;"));
  checki "int division after cast" 2 (result_int (main "double d = 5.0; return (int)d / 2;"));
  checki "negative int cast" (-3) (result_int (main "double d = -3.9; return (int)d;"))

let test_global_variables () =
  checki "globals readable and writable" 11
    (result_int "int counter = 4; void bump(int k) { counter += k; } int main() { bump(7); return counter; }")

(* --- coverage --- *)

let test_coverage_records_executed () =
  let o = run_c "int main() {\nint x = 1;\nreturn x;\n}" in
  checkb "line 2 covered" true (Coverage.covered o.Ic.coverage ~file:"t.cpp" ~line:2)

let test_coverage_skips_dead_branch () =
  let o = run_c "int main() {\nif (false) {\nint dead = 0;\n}\nreturn 0;\n}" in
  checkb "dead line not covered" false
    (Coverage.covered o.Ic.coverage ~file:"t.cpp" ~line:3)

(* --- Fortran --- *)

let run_f src = If_.run (Sv_lang_f.Parser.parse ~file:"t.f90" src)

let test_fortran_basics () =
  let o =
    run_f
      "program t\n  implicit none\n  integer :: i\n  real(kind=8) :: s\n  real(kind=8), allocatable, dimension(:) :: a\n  allocate(a(10))\n  do i = 1, 10\n    a(i) = real(i, 8)\n  end do\n  s = sum(a)\n  print *, s\nend program t\n"
  in
  checkb "ran" true (o.If_.result = Ok ());
  checkb "sum printed" true (o.If_.output = "55.000000\n")

let test_fortran_subroutine_byref () =
  let o =
    run_f
      "program t\n  implicit none\n  real(kind=8) :: x\n  x = 3.0d0\n  call double_it(x)\n  print *, x\nend program t\n\nsubroutine double_it(v)\n  implicit none\n  real(kind=8) :: v\n  v = 2.0d0 * v\nend subroutine double_it\n"
  in
  checkb "by-reference update" true (o.If_.output = "6.000000\n")

let test_fortran_array_broadcast () =
  let o =
    run_f
      "program t\n  implicit none\n  real(kind=8), allocatable, dimension(:) :: a, b\n  allocate(a(4), b(4))\n  a = 2.0d0\n  b = 3.0d0 * a + 1.0d0\n  print *, sum(b), dot_product(a, b)\nend program t\n"
  in
  checkb "broadcast arithmetic" true (o.If_.output = "28.000000 56.000000\n")

let test_fortran_exit_cycle () =
  let o =
    run_f
      "program t\n  implicit none\n  integer :: i, s\n  s = 0\n  do i = 1, 100\n    if (i == 5) then\n      exit\n    end if\n    if (mod(i, 2) == 0) then\n      cycle\n    end if\n    s = s + i\n  end do\n  print *, s\nend program t\n"
  in
  checkb "exit/cycle" true (o.If_.output = "4\n")

let test_fortran_error () =
  let o = run_f "program t\n  implicit none\n  real(kind=8) :: x\n  x = nosuch(1)\nend program t\n" in
  checkb "unknown function reported" true (Result.is_error o.If_.result)

(* --- the corpus verification runs --- *)

let verify_c name all =
  List.iter
    (fun (cb : Sv_corpus.Emit.codebase) ->
      let resolve n = List.assoc_opt n cb.Sv_corpus.Emit.files in
      let parse_unit file =
        let src = List.assoc file cb.Sv_corpus.Emit.files in
        let pp = Sv_lang_c.Preproc.run ~resolve ~defines:[] ~file src in
        Sv_lang_c.Parser.parse_tokens ~file pp.Sv_lang_c.Preproc.tokens
      in
      let units =
        List.map parse_unit
          (cb.Sv_corpus.Emit.main_file :: cb.Sv_corpus.Emit.extra_units)
      in
      match (Ic.run units).Ic.result with
      | Ok (Ic.VInt 0) -> ()
      | Ok v ->
          Alcotest.failf "%s/%s returned %s" name cb.Sv_corpus.Emit.model
            (Format.asprintf "%a" Ic.pp_value v)
      | Error e -> Alcotest.failf "%s/%s: %s" name cb.Sv_corpus.Emit.model e)
    all

(* --- golden outcomes ---

   Index caches store each program's step count and coverage, and the
   generator admits a mutant only when its run matches the seed's, so
   every observable of a run is pinned here: result, output, steps and
   the full coverage dump of each C codebase, folded into one digest per
   corpus. A change to any of them is a semantics change that needs a
   new Index_cache.pipeline_version. *)

let c_units (cb : Sv_corpus.Emit.codebase) =
  let resolve n = List.assoc_opt n cb.Sv_corpus.Emit.files in
  List.map
    (fun file ->
      let src = List.assoc file cb.Sv_corpus.Emit.files in
      let pp = Sv_lang_c.Preproc.run ~resolve ~defines:cb.Sv_corpus.Emit.defines ~file src in
      Sv_lang_c.Parser.parse_tokens ~file pp.Sv_lang_c.Preproc.tokens)
    (cb.Sv_corpus.Emit.main_file :: cb.Sv_corpus.Emit.extra_units)

let outcome_string (o : Ic.outcome) =
  let b = Buffer.create 1024 in
  (match o.Ic.result with
  | Ok v -> Buffer.add_string b (Format.asprintf "ok %a" Ic.pp_value v)
  | Error e -> Buffer.add_string b ("error " ^ e));
  Printf.bprintf b "\n%d\n%S\n" o.Ic.steps o.Ic.output;
  List.iter
    (fun (file, lines) ->
      Printf.bprintf b "%s:" file;
      List.iter (fun (l, n) -> Printf.bprintf b " %d=%d" l n) lines;
      Buffer.add_char b '\n')
    (Coverage.dump o.Ic.coverage);
  Buffer.contents b

(* (programs, total steps, hex digest) over the C codebases of a corpus *)
let golden_of cbs =
  let cbs = List.filter (fun cb -> cb.Sv_corpus.Emit.lang = `C) cbs in
  let b = Buffer.create 4096 in
  let steps =
    List.fold_left
      (fun acc (cb : Sv_corpus.Emit.codebase) ->
        let o = Ic.run (c_units cb) in
        Printf.bprintf b "%s/%s\n%s" cb.Sv_corpus.Emit.app cb.Sv_corpus.Emit.model
          (outcome_string o);
        acc + o.Ic.steps)
      0 cbs
  in
  (List.length cbs, steps, Digest.to_hex (Digest.string (Buffer.contents b)))

let gen_corpus spec =
  match Sv_gen.Gen.parse_spec spec with
  | Some s -> Sv_gen.Gen.codebases s
  | None -> Alcotest.failf "bad spec %s" spec

let golden =
  [
    ("babelstream", (fun () -> Sv_corpus.Babelstream.all ()),
     (10, 311415, "fab31aeac1ffff14133c8d7755ae63b0"));
    ("tealeaf", (fun () -> Sv_corpus.Tealeaf.all ()),
     (10, 1071721, "7b766f786b95fa5a6928354b0b95d6a7"));
    ("cloverleaf", (fun () -> Sv_corpus.Cloverleaf.all ()),
     (10, 1854284, "1586765a959b89e06ea8bdb2e48c20a9"));
    ("minibude", (fun () -> Sv_corpus.Minibude.all ()),
     (10, 2032649, "7b7ff98af566d8ce4cfa6e473fcb81a1"));
    ("gen:mutate:babelstream:1:40", (fun () -> gen_corpus "gen:mutate:babelstream:1:40"),
     (40, 1432172, "76c1950787f9cb40b4bfdab4ea13395a"));
    ("gen:grow:all:1:24", (fun () -> gen_corpus "gen:grow:all:1:24"),
     (24, 161342, "028b89bbb3ee91c750ac86a8174b3194"));
  ]

let test_golden_outcomes () =
  (* every corpus runs before the first check, so a failure shows all
     the new values at once *)
  let actual =
    List.map
      (fun (name, corpus, _) ->
        let ((n, steps, digest) as got) = golden_of (corpus ()) in
        Printf.printf "golden %s: (%d, %d, %S)\n%!" name n steps digest;
        got)
      golden
  in
  List.iter2
    (fun (name, _, (n, steps, digest)) (n', steps', digest') ->
      checki (name ^ " programs") n n';
      checki (name ^ " steps") steps steps';
      Alcotest.(check string) (name ^ " outcome digest") digest digest')
    golden actual

let test_verify_babelstream () = verify_c "babelstream" (Sv_corpus.Babelstream.all ())
let test_verify_tealeaf () = verify_c "tealeaf" (Sv_corpus.Tealeaf.all ())
let test_verify_cloverleaf () = verify_c "cloverleaf" (Sv_corpus.Cloverleaf.all ())
let test_verify_minibude () = verify_c "minibude" (Sv_corpus.Minibude.all ())

let test_verify_babelstream_f () =
  List.iter
    (fun (cb : Sv_corpus.Emit.codebase) ->
      let src = List.assoc cb.Sv_corpus.Emit.main_file cb.Sv_corpus.Emit.files in
      let o = run_f src in
      match o.If_.result with
      | Ok () ->
          checkb
            (Printf.sprintf "%s validation output" cb.Sv_corpus.Emit.model)
            true
            (Sv_util.Xstring.starts_with ~prefix:"Validation PASSED" o.If_.output)
      | Error e -> Alcotest.failf "%s: %s" cb.Sv_corpus.Emit.model e)
    (Sv_corpus.Babelstream_f.all ())

let () =
  Alcotest.run "interp"
    [
      ( "c-semantics",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "functions" `Quick test_functions_and_recursion;
          Alcotest.test_case "arrays/pointers" `Quick test_arrays_and_pointers;
          Alcotest.test_case "structs" `Quick test_structs;
          Alcotest.test_case "closures" `Quick test_closures;
          Alcotest.test_case "printf" `Quick test_printf_formats;
        ] );
      ( "c-errors",
        [
          Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
          Alcotest.test_case "unknown name" `Quick test_unknown_name;
          Alcotest.test_case "step budget" `Quick test_step_budget;
          Alcotest.test_case "step budget message and location" `Quick test_step_budget_location;
        ] );
      ("c-nontermination", nonterminating_cases);
      ("c-located-errors", located_error_cases);
      ( "c-scoping",
        [
          Alcotest.test_case "use before inner declaration" `Quick test_scope_use_before_inner_decl;
          Alcotest.test_case "same-scope redeclaration" `Quick test_scope_redeclaration;
          Alcotest.test_case "for-init scope" `Quick test_scope_for_init;
          Alcotest.test_case "lambda late binding" `Quick test_scope_lambda_late_binding;
          Alcotest.test_case "reference parameters" `Quick test_scope_reference_params;
          Alcotest.test_case "thread indices per thread" `Quick test_scope_thread_indices;
        ] );
      ( "dialects",
        [
          Alcotest.test_case "cuda" `Quick test_cuda_semantics;
          Alcotest.test_case "sycl" `Quick test_sycl_semantics;
          Alcotest.test_case "kokkos" `Quick test_kokkos_semantics;
          Alcotest.test_case "tbb" `Quick test_tbb_semantics;
          Alcotest.test_case "stdpar" `Quick test_stdpar_semantics;
          Alcotest.test_case "raja" `Quick test_raja_semantics;
        ] );
      ( "programs",
        [
          Alcotest.test_case "multi-unit link" `Quick test_multi_unit_program;
          Alcotest.test_case "struct constructor" `Quick test_struct_constructor_args;
          Alcotest.test_case "ternary/casts" `Quick test_ternary_and_casts;
          Alcotest.test_case "globals" `Quick test_global_variables;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "records executed lines" `Quick test_coverage_records_executed;
          Alcotest.test_case "skips dead branches" `Quick test_coverage_skips_dead_branch;
        ] );
      ( "fortran",
        [
          Alcotest.test_case "basics" `Quick test_fortran_basics;
          Alcotest.test_case "by-reference args" `Quick test_fortran_subroutine_byref;
          Alcotest.test_case "array broadcast" `Quick test_fortran_array_broadcast;
          Alcotest.test_case "exit/cycle" `Quick test_fortran_exit_cycle;
          Alcotest.test_case "errors" `Quick test_fortran_error;
        ] );
      ( "corpus-verification",
        [
          Alcotest.test_case "babelstream c++" `Slow test_verify_babelstream;
          Alcotest.test_case "babelstream fortran" `Quick test_verify_babelstream_f;
          Alcotest.test_case "tealeaf" `Slow test_verify_tealeaf;
          Alcotest.test_case "cloverleaf" `Slow test_verify_cloverleaf;
          Alcotest.test_case "minibude" `Slow test_verify_minibude;
        ] );
      ("golden", [ Alcotest.test_case "outcome digests" `Quick test_golden_outcomes ]);
    ]
