(** Interpreter for MiniC.

    Serves two purposes from the paper's artifact appendix: it runs each
    mini-app's built-in verification ("each mini-app contains built-in
    verification for correctness"), and it produces the line-coverage
    profile that SilverVale's coverage variant consumes (§IV-D) — this
    container has no GCov/Clang coverage, so execution itself is the
    profiler.

    Each function and lambda body is compiled once, on its first call,
    into OCaml closures; the closures are what run. Local names resolve
    at compile time to slots of a per-activation frame, and calls to
    builtins and user functions and each statement's coverage counter
    are bound then too, so executing a statement does no name lookup.
    Scoping is that of a table per block filled as statements run: a use
    before an inner declaration reaches the outer binding, a same-scope
    redeclaration gets a fresh cell, a [for] header has its own scope and
    each loop iteration a fresh body scope, and a lambda reads the cells
    of the scopes it was created in when it is called. A lambda called
    after the scope instance it was created in was left sees what that
    scope's slots hold now: a later instance's cells or, while they are
    unbound, the outer binding.

    Every dialect executes with serial semantics: OpenMP directives run
    their statement; CUDA/HIP launches iterate the grid with
    [blockIdx]/[threadIdx] bound afresh per thread; SYCL queues, Kokkos
    [parallel_for]/[parallel_reduce], TBB ranges and StdPar algorithms are
    interpreted through a builtin model of each runtime. Parallel loops
    therefore execute in a fixed sequential order, which keeps
    verification deterministic. *)

type value =
  | VUnit
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VStr of string
  | VArrF of float array   (** double/float data *)
  | VArrI of int array     (** int data *)
  | VRef of value ref      (** address-of result / out-parameter *)
  | VFun of Sv_lang_c.Ast.func
  | VClosure of closure
  | VObj of string * (string, value) Hashtbl.t
      (** library object (queue, handler, range, blocked_range, dim3…) *)

and closure

exception Runtime_error of string * Sv_util.Loc.t
(** Execution error: unknown name, bad operand, step-budget exhausted… *)

type outcome = {
  result : (value, string) Result.t;  (** entry function's return value *)
  coverage : Sv_util.Coverage.t;      (** per-line execution profile *)
  output : string;                    (** accumulated [printf] text *)
  steps : int;                        (** statements executed *)
}

val max_call_depth : int
(** Calls (of functions and lambdas) that may be active at once: one
    more ends the run with a located ["call depth limit exceeded"]
    error. *)

val run :
  ?max_steps:int ->
  ?entry:string ->
  ?args:value list ->
  Sv_lang_c.Ast.tunit list ->
  outcome
(** [run units] executes [entry] (default ["main"], default no arguments;
    a missing [argc]/[argv] pair is tolerated) across the translation
    units of one program.

    [max_steps] (default [50_000_000]) bounds execution twice over: the
    run fails with ["step budget exhausted"] at the statement that would
    be statement [max_steps + 1], or at the loop whose iteration would be
    iteration [max_steps + 1] (counting every loop, kernel-launch thread
    and parallel-construct index), so a loop with an empty body ends too.
    Iterations are not steps: [steps] counts statements only. Recursion
    deeper than {!max_call_depth} fails likewise.

    Never raises: every error, including an out-of-bounds access by any
    path and a negative allocation size, is reported in [result] as
    ["<message> at <file:line:col>"]. *)

val value_to_float : value -> float option
(** Numeric view of a value, for assertions in tests and benches. *)

val observation : outcome -> (value, string) Result.t * string
(** [observation o] projects the behaviour a semantics-preserving
    transformation must keep: the entry function's result and the
    accumulated output. Coverage and step counts are execution detail,
    free to change. This is the equivalence the corpus generator's
    semantic check compares. *)

val pp_value : Format.formatter -> value -> unit
(** Debug printer. *)
