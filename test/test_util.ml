(* Unit and property tests for Sv_util: PRNG, strings, locations,
   coverage, directive syntax. *)

module Prng = Sv_util.Prng
module Xstring = Sv_util.Xstring
module Loc = Sv_util.Loc
module Coverage = Sv_util.Coverage
module Dsyn = Sv_util.Directive_syntax

let check = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)

(* --- prng --- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_differs () =
  let a = Prng.create 1 and b = Prng.create 2 in
  checkb "different seeds give different first draw" true
    (Prng.next_int64 a <> Prng.next_int64 b)

let test_prng_int_bounds () =
  let t = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int t 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_prng_range () =
  let t = Prng.create 7 in
  for _ = 1 to 500 do
    let v = Prng.range t 5 9 in
    checkb "inclusive range" true (v >= 5 && v <= 9)
  done

let test_prng_float () =
  let t = Prng.create 3 in
  for _ = 1 to 500 do
    let v = Prng.float t 2.5 in
    checkb "float range" true (v >= 0.0 && v < 2.5)
  done

let test_prng_copy_independent () =
  let a = Prng.create 9 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  let va = Prng.next_int64 a in
  let vb = Prng.next_int64 b in
  Alcotest.(check int64) "copy continues identically" va vb

let test_prng_shuffle_is_permutation () =
  let t = Prng.create 11 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_prng_gaussian_moments () =
  let t = Prng.create 13 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.gaussian t ~mean:5.0 ~stddev:2.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean close to 5" true (Float.abs (mean -. 5.0) < 0.1)

let test_prng_pick () =
  let t = Prng.create 17 in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 100 do
    checkb "picked element" true (Array.mem (Prng.pick t a) a)
  done

(* --- xstring --- *)

let test_lines () =
  Alcotest.(check (list string)) "basic" [ "a"; "b" ] (Xstring.lines "a\nb");
  Alcotest.(check (list string)) "trailing newline" [ "a"; "b" ] (Xstring.lines "a\nb\n");
  Alcotest.(check (list string)) "empty" [] (Xstring.lines "");
  Alcotest.(check (list string)) "inner empty kept" [ "a"; ""; "b" ] (Xstring.lines "a\n\nb")

let test_collapse_spaces () =
  checks "runs collapse" "a b c" (Xstring.collapse_spaces "a   b\t\tc");
  checks "leading collapse" " a" (Xstring.collapse_spaces "   a");
  checks "idempotent" "a b" (Xstring.collapse_spaces (Xstring.collapse_spaces "a    b"))

let test_is_blank () =
  checkb "spaces" true (Xstring.is_blank "  \t ");
  checkb "empty" true (Xstring.is_blank "");
  checkb "text" false (Xstring.is_blank " x ")

let test_pad_and_width () =
  check "ascii width" 3 (Xstring.display_width "abc");
  check "unicode width" 1 (Xstring.display_width "█");
  checks "pads to width" "ab  " (Xstring.pad 4 "ab");
  checks "wide unchanged" "abcdef" (Xstring.pad 3 "abcdef")

let test_repeat () =
  checks "repeat" "ababab" (Xstring.repeat "ab" 3);
  checks "zero" "" (Xstring.repeat "ab" 0)

let test_common_prefix () =
  check "shared" 3 (Xstring.common_prefix_len "abcx" "abcy");
  check "none" 0 (Xstring.common_prefix_len "x" "y");
  check "full" 2 (Xstring.common_prefix_len "ab" "ab")

let test_starts_with () =
  checkb "yes" true (Xstring.starts_with ~prefix:"#pragma" "#pragma omp");
  checkb "no" false (Xstring.starts_with ~prefix:"#pragma" "#prag")

(* --- loc --- *)

let mkloc f l1 c1 l2 c2 =
  { Loc.file = f; start = { Loc.line = l1; col = c1 }; stop = { Loc.line = l2; col = c2 } }

let test_loc_span () =
  let a = mkloc "f" 1 4 1 9 and b = mkloc "f" 3 0 4 2 in
  let s = Loc.span a b in
  check "start line" 1 s.Loc.start.Loc.line;
  check "stop line" 4 s.Loc.stop.Loc.line

let test_loc_span_none () =
  let a = mkloc "f" 2 0 2 5 in
  checkb "span with none keeps a" true (Loc.span a Loc.none = a);
  checkb "span with none keeps b" true (Loc.span Loc.none a = a)

let test_loc_lines_covered () =
  Alcotest.(check (list int)) "multi-line" [ 2; 3; 4 ] (Loc.lines_covered (mkloc "f" 2 0 4 1));
  Alcotest.(check (list int)) "none" [] (Loc.lines_covered Loc.none)

let test_loc_compare_order () =
  let a = mkloc "a" 1 0 1 0 and b = mkloc "b" 1 0 1 0 in
  checkb "file order" true (Loc.compare a b < 0);
  let c = mkloc "a" 2 0 2 0 in
  checkb "line order" true (Loc.compare a c < 0);
  check "reflexive" 0 (Loc.compare a a)

let test_loc_pp () =
  checks "single line" "f:3:7" (Loc.to_string (mkloc "f" 3 7 3 9));
  checks "multi line" "f:3-5" (Loc.to_string (mkloc "f" 3 0 5 2))

(* --- coverage --- *)

let test_coverage_basics () =
  let c = Coverage.create () in
  checkb "empty" false (Coverage.covered c ~file:"f" ~line:3);
  Coverage.hit c ~file:"f" ~line:3;
  Coverage.hit c ~file:"f" ~line:3;
  checkb "covered" true (Coverage.covered c ~file:"f" ~line:3);
  check "count" 2 (Coverage.count c ~file:"f" ~line:3);
  Alcotest.(check (list string)) "files" [ "f" ] (Coverage.files c);
  Alcotest.(check (list int)) "lines" [ 3 ] (Coverage.lines_hit c ~file:"f")

let test_coverage_merge () =
  let a = Coverage.create () and b = Coverage.create () in
  Coverage.hit a ~file:"f" ~line:1;
  Coverage.hit b ~file:"f" ~line:1;
  Coverage.hit b ~file:"g" ~line:2;
  let m = Coverage.merge a b in
  check "summed count" 2 (Coverage.count m ~file:"f" ~line:1);
  checkb "other file" true (Coverage.covered m ~file:"g" ~line:2)

let test_coverage_counters () =
  let c = Coverage.create () in
  let k = Coverage.counter c ~file:"f" ~line:7 in
  let _unused = Coverage.counter c ~file:"g" ~line:1 in
  Alcotest.(check (list string)) "a bound counter records nothing" [] (Coverage.files c);
  Coverage.incr k;
  Coverage.incr k;
  Coverage.hit c ~file:"f" ~line:7;
  check "incr and hit share the count" 3 (Coverage.count c ~file:"f" ~line:7);
  Alcotest.(check (list string)) "only hit files" [ "f" ] (Coverage.files c)

let test_coverage_extreme_lines () =
  (* far and negative lines (a corrupt cache entry) must not allocate a
     line-indexed array, and still round-trip *)
  let entries = [ ("f", [ (-3, 1); (2, 4); (max_int, 2) ]) ] in
  let c = Coverage.restore entries in
  Alcotest.(check (list (pair string (list (pair int int))))) "round trip" entries
    (Coverage.dump c);
  check "far line" 2 (Coverage.count c ~file:"f" ~line:max_int);
  let k = Coverage.counter c ~file:"f" ~line:(-3) in
  Coverage.incr k;
  Alcotest.(check (list int)) "sorted lines" [ -3; 2; max_int ] (Coverage.lines_hit c ~file:"f");
  check "negative line" 2 (Coverage.count c ~file:"f" ~line:(-3))

let test_coverage_keep_loc () =
  let c = Coverage.create () in
  Coverage.hit c ~file:"f" ~line:5;
  checkb "synthesised kept" true (Coverage.keep_loc c Loc.none);
  checkb "unprofiled file masked (gcov zero-count)" false
    (Coverage.keep_loc c (mkloc "other" 1 0 1 0));
  checkb "hit line kept" true (Coverage.keep_loc c (mkloc "f" 4 0 6 0));
  checkb "dead line dropped" false (Coverage.keep_loc c (mkloc "f" 7 0 9 0))

(* --- directive syntax --- *)

let test_split_plain_words () =
  Alcotest.(check (list (pair string (option string))))
    "words" [ ("parallel", None); ("for", None) ]
    (Dsyn.split "parallel for")

let test_split_with_args () =
  Alcotest.(check (list (pair string (option string))))
    "clause args"
    [ ("target", None); ("map", Some "(tofrom: a)"); ("reduction", Some "(+:sum)") ]
    (Dsyn.split "target map(tofrom: a) reduction(+:sum)")

let test_split_nested_parens () =
  Alcotest.(check (list (pair string (option string))))
    "nested" [ ("if", Some "(f(x, y))") ]
    (Dsyn.split "if(f(x, y))")

let test_sentinel_forms () =
  let origin = function `Omp -> "omp" | `Acc -> "acc" in
  let got s = Option.map (fun (o, b) -> (origin o, b)) (Dsyn.strip_sentinel s) in
  Alcotest.(check (option (pair string string)))
    "pragma omp" (Some ("omp", "parallel for")) (got "#pragma omp parallel for");
  Alcotest.(check (option (pair string string)))
    "pragma acc" (Some ("acc", "kernels")) (got "#pragma acc kernels");
  Alcotest.(check (option (pair string string)))
    "fortran omp" (Some ("omp", "parallel do")) (got "!$omp parallel do");
  Alcotest.(check (option (pair string string)))
    "fortran acc" (Some ("acc", "parallel loop")) (got "!$acc parallel loop");
  Alcotest.(check (option (pair string string))) "not a directive" None (got "int x = 1;")

(* --- properties --- *)

let prop_collapse_idempotent =
  QCheck.Test.make ~name:"collapse_spaces idempotent" ~count:500
    QCheck.(string_of_size (Gen.int_bound 80))
    (fun s -> Xstring.collapse_spaces (Xstring.collapse_spaces s) = Xstring.collapse_spaces s)

let prop_lines_concat =
  QCheck.Test.make ~name:"lines preserves content (no trailing nl)" ~count:500
    QCheck.(list_of_size (Gen.int_bound 10) (string_of_size (Gen.int_bound 10)))
    (fun parts ->
      let parts = List.map (String.map (fun c -> if c = '\n' then '.' else c)) parts in
      (* a trailing empty part is indistinguishable from a final newline,
         which [lines] deliberately absorbs *)
      QCheck.assume
        (match List.rev parts with "" :: _ -> false | _ -> true);
      let s = String.concat "\n" parts in
      Xstring.lines s = if s = "" then [] else parts)

let prop_split_no_empty_words =
  QCheck.Test.make ~name:"directive split yields no empty words" ~count:500
    QCheck.(string_of_size (Gen.int_bound 40))
    (fun s ->
      let s = String.map (fun c -> if c = '\n' then ' ' else c) s in
      List.for_all (fun (w, _) -> w <> "") (Dsyn.split s))

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seed_differs;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "range bounds" `Quick test_prng_range;
          Alcotest.test_case "float bounds" `Quick test_prng_float;
          Alcotest.test_case "copy independent" `Quick test_prng_copy_independent;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_is_permutation;
          Alcotest.test_case "gaussian mean" `Slow test_prng_gaussian_moments;
          Alcotest.test_case "pick membership" `Quick test_prng_pick;
        ] );
      ( "xstring",
        [
          Alcotest.test_case "lines" `Quick test_lines;
          Alcotest.test_case "collapse spaces" `Quick test_collapse_spaces;
          Alcotest.test_case "is_blank" `Quick test_is_blank;
          Alcotest.test_case "pad/width" `Quick test_pad_and_width;
          Alcotest.test_case "repeat" `Quick test_repeat;
          Alcotest.test_case "common prefix" `Quick test_common_prefix;
          Alcotest.test_case "starts_with" `Quick test_starts_with;
        ] );
      ( "loc",
        [
          Alcotest.test_case "span" `Quick test_loc_span;
          Alcotest.test_case "span with none" `Quick test_loc_span_none;
          Alcotest.test_case "lines covered" `Quick test_loc_lines_covered;
          Alcotest.test_case "compare order" `Quick test_loc_compare_order;
          Alcotest.test_case "pretty printing" `Quick test_loc_pp;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "hit/count/files" `Quick test_coverage_basics;
          Alcotest.test_case "merge" `Quick test_coverage_merge;
          Alcotest.test_case "bound counters" `Quick test_coverage_counters;
          Alcotest.test_case "extreme line numbers" `Quick test_coverage_extreme_lines;
          Alcotest.test_case "keep_loc mask" `Quick test_coverage_keep_loc;
        ] );
      ( "directive-syntax",
        [
          Alcotest.test_case "plain words" `Quick test_split_plain_words;
          Alcotest.test_case "clause args" `Quick test_split_with_args;
          Alcotest.test_case "nested parens" `Quick test_split_nested_parens;
          Alcotest.test_case "sentinel forms" `Quick test_sentinel_forms;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_collapse_idempotent; prop_lines_concat; prop_split_no_empty_words ] );
    ]
