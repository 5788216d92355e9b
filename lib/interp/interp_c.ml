module Loc = Sv_util.Loc
module Coverage = Sv_util.Coverage
open Sv_lang_c.Ast

type value =
  | VUnit
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VStr of string
  | VArrF of float array
  | VArrI of int array
  | VRef of value ref
  | VFun of func
  | VClosure of closure
  | VObj of string * (string, value) Hashtbl.t

and closure = { proc : proc Lazy.t; env : frame }

(* One activation of a function or lambda body: a cell per slot the
   compiler assigned, [unbound] until the declaration runs. [up] is the
   activation a lambda was created in; a function's is [root]. *)
and frame = { slots : value ref array; up : frame }

(* A compiled body: its frame size, where each parameter lands, and the
   statements. *)
and proc = { nslots : int; params : pslot list; body : frame -> unit }
and pslot = { ps_slot : int; ps_byref : bool; ps_ty : ty }

exception Runtime_error of string * Loc.t

(* Internal control flow. *)
exception Return_exc of value
exception Break_exc
exception Continue_exc

let max_call_depth = 10_000

(* Never handed to a program: a slot or global holding it is unbound. *)
let unbound : value ref = ref VUnit

let rec root = { slots = [||]; up = root }

(* A global variable by name; [cell] is [unbound] while none exists. *)
type gbox = { mutable cell : value ref }

(* A function name: its current definition and the code compiled for it. *)
type fbox = { mutable fdef : func option; mutable fcode : fcode option }
and fcode = { fc_func : func; fc_hit : Coverage.counter option; fc_proc : proc Lazy.t }

type state = {
  funcs : (string, fbox) Hashtbl.t;
  records : (string, record) Hashtbl.t;
  globals : (string, gbox) Hashtbl.t;
  cov : Coverage.t;
  out : Buffer.t;
  mutable steps : int;
  max_steps : int;
  mutable iters : int;  (** loop iterations, for the budget only *)
  mutable depth : int;  (** active calls *)
}

type outcome = {
  result : (value, string) Result.t;
  coverage : Coverage.t;
  output : string;
  steps : int;
}

let err loc fmt = Printf.ksprintf (fun m -> raise (Runtime_error (m, loc))) fmt

let value_to_float = function
  | VInt n -> Some (float_of_int n)
  | VFloat f -> Some f
  | VBool b -> Some (if b then 1.0 else 0.0)
  | _ -> None

let observation o = (o.result, o.output)

let rec pp_value fmt = function
  | VUnit -> Format.pp_print_string fmt "()"
  | VInt n -> Format.pp_print_int fmt n
  | VFloat f -> Format.fprintf fmt "%g" f
  | VBool b -> Format.pp_print_bool fmt b
  | VStr s -> Format.fprintf fmt "%S" s
  | VArrF a -> Format.fprintf fmt "<f64[%d]>" (Array.length a)
  | VArrI a -> Format.fprintf fmt "<i32[%d]>" (Array.length a)
  | VRef r -> Format.fprintf fmt "&%a" pp_value !r
  | VFun f -> Format.fprintf fmt "<fun %s>" f.f_name
  | VClosure _ -> Format.pp_print_string fmt "<lambda>"
  | VObj (tag, _) -> Format.fprintf fmt "<%s>" tag

(* --- numeric helpers -------------------------------------------------- *)

let to_float loc v =
  match value_to_float v with
  | Some f -> f
  | None -> err loc "expected a number, got %s" (Format.asprintf "%a" pp_value v)

let to_int loc v =
  match v with
  | VInt n -> n
  | VFloat f -> int_of_float f
  | VBool b -> if b then 1 else 0
  | _ -> err loc "expected an integer, got %s" (Format.asprintf "%a" pp_value v)

let to_bool loc v =
  match v with
  | VBool b -> b
  | VInt n -> n <> 0
  | VFloat f -> f <> 0.0
  | _ -> err loc "expected a boolean"

let is_float_v = function VFloat _ -> true | _ -> false

(* --- objects and arrays ------------------------------------------------- *)

let obj tag fields =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) fields;
  VObj (tag, tbl)

let field loc fields name =
  match Hashtbl.find_opt fields name with
  | Some v -> v
  | None -> err loc "object has no field %s" name

let check_index loc idx len =
  if idx < 0 || idx >= len then err loc "index %d out of bounds [0,%d)" idx len

let check_size loc n =
  if n < 0 then err loc "negative array size %d" n
  else if n > Sys.max_floatarray_length then err loc "array size %d too large" n

let make_f loc n = check_size loc n; Array.make n 0.0
let make_i loc n = check_size loc n; Array.make n 0

(* --- arithmetic -------------------------------------------------------- *)

let arith loc op a b =
  match op with
  (* RAJA-style reducer objects absorb += : operator+= on ReduceSum *)
  | Add when (match a with VObj (_, f) -> Hashtbl.mem f "acc" | _ -> false) -> (
      match a with
      | VObj (_, fields) ->
          let cur = to_float loc (Hashtbl.find fields "acc") in
          Hashtbl.replace fields "acc" (VFloat (cur +. to_float loc b));
          a
      | _ -> assert false)
  | LAnd -> VBool (to_bool loc a && to_bool loc b)
  | LOr -> VBool (to_bool loc a || to_bool loc b)
  | Eq | Ne | Lt | Gt | Le | Ge ->
      let fa = to_float loc a and fb = to_float loc b in
      let r =
        match op with
        | Eq -> fa = fb
        | Ne -> fa <> fb
        | Lt -> fa < fb
        | Gt -> fa > fb
        | Le -> fa <= fb
        | Ge -> fa >= fb
        | _ -> assert false
      in
      VBool r
  | Add | Sub | Mul | Div | Mod | BitAnd | BitOr | BitXor | Shl | Shr ->
      if is_float_v a || is_float_v b then begin
        let fa = to_float loc a and fb = to_float loc b in
        match op with
        | Add -> VFloat (fa +. fb)
        | Sub -> VFloat (fa -. fb)
        | Mul -> VFloat (fa *. fb)
        | Div -> VFloat (fa /. fb)
        | Mod -> VFloat (Float.rem fa fb)
        | _ -> err loc "bitwise operator on float"
      end
      else begin
        let ia = to_int loc a and ib = to_int loc b in
        match op with
        | Add -> VInt (ia + ib)
        | Sub -> VInt (ia - ib)
        | Mul -> VInt (ia * ib)
        | Div -> if ib = 0 then err loc "integer division by zero" else VInt (ia / ib)
        | Mod -> if ib = 0 then err loc "integer modulo by zero" else VInt (ia mod ib)
        | BitAnd -> VInt (ia land ib)
        | BitOr -> VInt (ia lor ib)
        | BitXor -> VInt (ia lxor ib)
        | Shl -> VInt (ia lsl ib)
        | Shr -> VInt (ia asr ib)
        | _ -> assert false
      end

(* [arith loc op] with the int/int and float/float cases of the common
   operators taken first; every other operand pair goes through [arith]. *)
let arith_fn loc op =
  match op with
  | Add -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> VInt (x + y)
        | VFloat x, VFloat y -> VFloat (x +. y)
        | _ -> arith loc op a b)
  | Sub -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> VInt (x - y)
        | VFloat x, VFloat y -> VFloat (x -. y)
        | _ -> arith loc op a b)
  | Mul -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> VInt (x * y)
        | VFloat x, VFloat y -> VFloat (x *. y)
        | _ -> arith loc op a b)
  | Div -> (
      fun a b ->
        match (a, b) with
        | VFloat x, VFloat y -> VFloat (x /. y)
        | _ -> arith loc op a b)
  | _ -> arith loc op

(* A comparison as an OCaml bool; numbers compare as floats, as in [arith]. *)
let compare_fn loc op =
  let test : float -> float -> bool =
    match op with
    | Eq -> ( = )
    | Ne -> ( <> )
    | Lt -> ( < )
    | Gt -> ( > )
    | Le -> ( <= )
    | _ -> ( >= )
  in
  fun a b ->
    match (a, b) with
    | VInt x, VInt y -> test (float_of_int x) (float_of_int y)
    | VFloat x, VFloat y -> test x y
    | _ -> ( match arith loc op a b with VBool r -> r | _ -> assert false)

(* --- default values ---------------------------------------------------- *)

let rec default_value st ty loc =
  match ty with
  | TVoid -> VUnit
  | TBool -> VBool false
  | TChar | TInt | TLong | TSizeT -> VInt 0
  | TFloat | TDouble | TAuto -> VFloat 0.0
  | TPtr _ | TRef _ -> VUnit
  | TConst t -> default_value st t loc
  | TArr (elem, Some n) -> (
      match elem with
      | TInt | TLong | TSizeT | TConst TInt -> VArrI (make_i loc n)
      | _ -> VArrF (make_f loc n))
  | TArr (_, None) -> VUnit
  | TNamed (name, _) -> (
      match Hashtbl.find_opt st.records name with
      | Some r ->
          obj name (List.map (fun (fty, fname) -> (fname, default_value st fty loc)) r.r_fields)
      | None -> VUnit)

let elem_count loc ty bytes =
  (* translate a byte count from [n * sizeof(T)] into an element count *)
  let sz = match ty with TInt | TConst TInt -> 4 | TFloat -> 4 | _ -> 8 in
  let b = to_int loc bytes in
  if b mod sz <> 0 then err loc "byte count %d not divisible by %d" b sz else b / sz

(* Find the sizeof type mentioned in an allocation-size expression, to
   decide between int and float storage. *)
let rec sizeof_type_of (e : expr) =
  match e.e with
  | SizeofT ty -> Some ty
  | Binary (_, a, b) -> (
      match sizeof_type_of a with Some t -> Some t | None -> sizeof_type_of b)
  | Cast (_, a) -> sizeof_type_of a
  | _ -> None

let alloc_array loc ty_opt bytes =
  match ty_opt with
  | Some (TInt | TConst TInt) -> VArrI (make_i loc (elem_count loc TInt bytes))
  | Some (TFloat | TConst TFloat) -> VArrF (make_f loc (elem_count loc TFloat bytes))
  | _ -> VArrF (make_f loc (elem_count loc TDouble bytes))

let copy_array loc ~dst ~src =
  match (dst, src) with
  | VArrF d, VArrF s -> Array.blit s 0 d 0 (min (Array.length s) (Array.length d))
  | VArrI d, VArrI s -> Array.blit s 0 d 0 (min (Array.length s) (Array.length d))
  | VRef d, s -> (
      match (!d, s) with
      | VArrF d, VArrF s -> Array.blit s 0 d 0 (min (Array.length s) (Array.length d))
      | VArrI d, VArrI s -> Array.blit s 0 d 0 (min (Array.length s) (Array.length d))
      | _ -> err loc "incompatible copy")
  | _ -> err loc "incompatible copy"

let format_printf loc fmtstr args =
  (* tiny %d / %g / %f / %e / %s / %% support *)
  let b = Buffer.create 64 in
  let args = ref args in
  let pop () =
    match !args with
    | a :: rest ->
        args := rest;
        a
    | [] -> err loc "printf: not enough arguments"
  in
  let n = String.length fmtstr in
  let i = ref 0 in
  while !i < n do
    if fmtstr.[!i] = '%' && !i + 1 < n then begin
      (* skip width/precision chars *)
      let j = ref (!i + 1) in
      while
        !j < n
        && (match fmtstr.[!j] with
           | '0' .. '9' | '.' | '-' | '+' | 'l' -> true
           | _ -> false)
      do
        incr j
      done;
      (if !j < n then
         match fmtstr.[!j] with
         | 'd' | 'i' | 'u' -> Buffer.add_string b (string_of_int (to_int loc (pop ())))
         | 'f' | 'g' | 'e' ->
             Buffer.add_string b (Printf.sprintf "%.6f" (to_float loc (pop ())))
         | 's' -> (
             match pop () with
             | VStr s -> Buffer.add_string b s
             | v -> Buffer.add_string b (Format.asprintf "%a" pp_value v))
         | '%' -> Buffer.add_char b '%'
         | c -> Buffer.add_char b c);
      i := !j + 1
    end
    else begin
      Buffer.add_char b fmtstr.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* --- run-time state ------------------------------------------------------ *)

let gbox st name =
  match Hashtbl.find_opt st.globals name with
  | Some g -> g
  | None ->
      let g = { cell = unbound } in
      Hashtbl.replace st.globals name g;
      g

let fbox st name =
  match Hashtbl.find_opt st.funcs name with
  | Some b -> b
  | None ->
      let b = { fdef = None; fcode = None } in
      Hashtbl.replace st.funcs name b;
      b

let counter_of st (loc : Loc.t) =
  if Loc.is_none loc then None
  else Some (Coverage.counter st.cov ~file:loc.Loc.file ~line:loc.Loc.start.Loc.line)

let budget_exhausted (st : state) loc = err loc "step budget exhausted (%d)" st.max_steps

(* Every executed statement is one step. *)
let tick (st : state) loc =
  st.steps <- st.steps + 1;
  if st.steps > st.max_steps then budget_exhausted st loc

(* Every loop iteration (and every index a parallel construct visits) is
   checked against the same budget on a separate count, so a loop whose
   body runs no statement still ends while [steps] stays the number of
   statements executed. *)
let iterate (st : state) loc =
  st.iters <- st.iters + 1;
  if st.iters > st.max_steps then budget_exhausted st loc

(* --- compile-time environments ------------------------------------------- *)

(* A lexical scope being compiled: the slot of each name declared in it
   so far. [captured] is set once a lambda is created inside it; such a
   scope unbinds its slots on entry, so the lambda sees exactly the
   declarations that ran in the current instance of the scope. *)
type scope = { names : (string, int) Hashtbl.t; mutable captured : bool }

type ctx = {
  st : state;
  next_slot : int ref;  (** slots allocated so far in this activation *)
  scopes : scope list;  (** this activation's scopes, innermost first *)
  outer : scope list list;  (** scopes captured by enclosing lambdas, nearest first *)
}

type resolved =
  | Local of int  (** a slot of this activation, bound whenever reached *)
  | Captured of int * int * resolved
      (** [(level, slot, next)]: a slot [level] activations up, read only
          if bound, else [next] *)
  | Global of gbox

let new_scope () = { names = Hashtbl.create 4; captured = false }

let declare cx name =
  match cx.scopes with
  | [] -> invalid_arg "Interp_c.declare: no scope"
  | sc :: _ -> (
      match Hashtbl.find_opt sc.names name with
      | Some slot -> slot
      | None ->
          let slot = !(cx.next_slot) in
          incr cx.next_slot;
          Hashtbl.replace sc.names name slot;
          slot)

(* Names resolve innermost-first through the scopes in force at this
   point of the source: a declaration later in the same scope is not yet
   visible, so a use before it reaches the outer binding, as it did when
   each scope was a table filled as statements ran. *)
let resolve cx name =
  let rec captured level = function
    | [] -> Global (gbox cx.st name)
    | scopes :: rest -> in_level level scopes rest
  and in_level level scopes rest =
    match scopes with
    | [] -> captured (level + 1) rest
    | sc :: more -> (
        match Hashtbl.find_opt sc.names name with
        | Some slot -> Captured (level, slot, in_level level more rest)
        | None -> in_level level more rest)
  in
  let rec local = function
    | [] -> captured 1 cx.outer
    | sc :: more -> (
        match Hashtbl.find_opt sc.names name with Some slot -> Local slot | None -> local more)
  in
  local cx.scopes

let rec frame_up fr level = if level = 0 then fr else frame_up fr.up (level - 1)

(* The variable's cell, or [unbound] when no local or global has the name. *)
let rec cell_getter = function
  | Local slot -> fun fr -> fr.slots.(slot)
  | Captured (1, slot, next) ->
      let next = cell_getter next in
      fun fr ->
        let c = fr.up.slots.(slot) in
        if c != unbound then c else next fr
  | Captured (level, slot, next) ->
      let next = cell_getter next in
      fun fr ->
        let c = (frame_up fr level).slots.(slot) in
        if c != unbound then c else next fr
  | Global g -> fun _ -> g.cell

(* --- calls --------------------------------------------------------------- *)

let bind_params st fr params args loc =
  let rec go params args =
    match (params, args) with
    | [], [] -> ()
    | p :: ps, a :: rest ->
        fr.slots.(p.ps_slot) <-
          (match a with
          | VRef r when p.ps_byref -> r
          | VRef r -> ref !r
          | v -> ref v);
        go ps rest
    | p :: ps, [] ->
        (* tolerate missing trailing args (e.g. main's argc/argv) *)
        fr.slots.(p.ps_slot) <- ref (default_value st p.ps_ty loc);
        go ps []
    | [], _ :: _ -> err loc "too many arguments"
  in
  go params args

let invoke st proc up args loc =
  if st.depth >= max_call_depth then err loc "call depth limit exceeded (%d)" max_call_depth;
  let fr = { slots = Array.make proc.nslots unbound; up } in
  bind_params st fr proc.params args loc;
  st.depth <- st.depth + 1;
  match proc.body fr with
  | () ->
      st.depth <- st.depth - 1;
      VUnit
  | exception Return_exc v ->
      st.depth <- st.depth - 1;
      v
  | exception e ->
      st.depth <- st.depth - 1;
      raise e

let call_closure st c args loc = invoke st (Lazy.force c.proc) c.env args loc

(* Run statements in order. Short lists get straight-line closures: the
   array loop made the mutation corpus about a tenth slower. *)
let seq (cs : (frame -> unit) list) =
  match cs with
  | [] -> fun _ -> ()
  | [ a ] -> a
  | [ a; b ] ->
      fun fr ->
        a fr;
        b fr
  | [ a; b; c ] ->
      fun fr ->
        a fr;
        b fr;
        c fr
  | _ ->
      let arr = Array.of_list cs in
      fun fr ->
        for i = 0 to Array.length arr - 1 do
          arr.(i) fr
        done

(* An assignable location, for the less common assignment targets. *)
type place =
  | PCell of value ref
  | PArrF of float array * int
  | PArrI of int array * int
  | PField of (string, value) Hashtbl.t * string

let place_get loc = function
  | PCell c -> !c
  | PArrF (a, i) -> VFloat a.(i)
  | PArrI (a, i) -> VInt a.(i)
  | PField (fields, name) -> field loc fields name

let place_set loc p v =
  match p with
  | PCell c -> c := v
  | PArrF (a, i) -> a.(i) <- to_float loc v
  | PArrI (a, i) -> a.(i) <- to_int loc v
  | PField (fields, name) -> Hashtbl.replace fields name v

let index_place loc va idx =
  match va with
  | VArrF arr ->
      check_index loc idx (Array.length arr);
      PArrF (arr, idx)
  | VArrI arr ->
      check_index loc idx (Array.length arr);
      PArrI (arr, idx)
  | VRef r -> (
      match !r with
      | VArrF arr ->
          check_index loc idx (Array.length arr);
          PArrF (arr, idx)
      | VArrI arr ->
          check_index loc idx (Array.length arr);
          PArrI (arr, idx)
      | _ -> err loc "cannot index through this reference")
  | _ -> err loc "cannot index non-array"

let builtin_const loc name =
  (* names that resolve without declaration *)
  match name with
  | "std::execution::par_unseq" | "std::execution::par" | "std::execution::seq" ->
      let v = VStr "execution-policy" in
      fun _ -> v
  | "RAND_MAX" -> fun _ -> VInt 0x7FFFFFFF
  | "M_PI" -> fun _ -> VFloat Float.pi
  | _ -> fun _ -> err loc "unknown name %s" name

(* --- the compiler -----------------------------------------------------------

   Each function and lambda body is compiled once, on its first call,
   into OCaml closures over a frame. Names are resolved here, so running
   a statement does no name lookup; builtins are chosen here too, and
   every statement's coverage counter is bound here. Evaluation order is
   that of the tree walker this replaces: binary operands right to left,
   an assignment's right-hand side before its target, call arguments
   left to right. *)

let rec call_func st box (f : func) args loc =
  let code =
    match box.fcode with
    | Some c when c.fc_func == f -> c
    | _ ->
        let c =
          {
            fc_func = f;
            fc_hit = counter_of st f.f_loc;
            fc_proc =
              lazy (compile_proc st [] f.f_params (Option.value f.f_body ~default:[]));
          }
        in
        (match box.fdef with Some g when g == f -> box.fcode <- Some c | _ -> ());
        c
  in
  (match code.fc_hit with Some h -> Coverage.incr h | None -> ());
  match f.f_body with
  | None -> err loc "call to undefined function %s" f.f_name
  | Some _ -> invoke st (Lazy.force code.fc_proc) root args loc

and call_value st loc callee args =
  match callee with
  | VFun f -> call_func st (fbox st f.f_name) f args loc
  | VClosure c -> call_closure st c args loc
  | (VArrF _ | VArrI _) as view -> (
      (* Kokkos view read access a(i) *)
      match args with
      | [ VInt i ] -> place_get loc (index_place loc view i)
      | _ -> err loc "bad view access")
  | v -> err loc "cannot call %s" (Format.asprintf "%a" pp_value v)

and compile_proc st outer params body =
  let cx = { st; next_slot = ref 0; scopes = [ new_scope () ]; outer } in
  let params =
    List.map
      (fun p ->
        {
          ps_slot = declare cx p.p_name;
          ps_byref = (match p.p_ty with TRef _ | TConst (TRef _) -> true | _ -> false);
          ps_ty = p.p_ty;
        })
      params
  in
  let body = seq (List.map (compile_stmt cx) body) in
  { nslots = !(cx.next_slot); params; body }

(* --- statements --- *)

and compile_stmt cx (s : stmt) : frame -> unit =
  let st = cx.st and loc = s.sloc in
  let run = compile_node cx s in
  match counter_of st loc with
  | Some c ->
      fun fr ->
        tick st loc;
        Coverage.incr c;
        run fr
  | None ->
      fun fr ->
        tick st loc;
        run fr

(* A fresh scope around [compile]; if a lambda was created inside it,
   its slots are unbound again on every entry. *)
and in_scope cx compile =
  let sc = new_scope () in
  let run : frame -> unit = compile { cx with scopes = sc :: cx.scopes } in
  if not sc.captured then run
  else
    let own = Array.of_seq (Hashtbl.to_seq_values sc.names) in
    fun fr ->
      for i = 0 to Array.length own - 1 do
        fr.slots.(own.(i)) <- unbound
      done;
      run fr

and compile_block cx stmts = in_scope cx (fun cx -> seq (List.map (compile_stmt cx) stmts))

and compile_node cx (s : stmt) : frame -> unit =
  let st = cx.st and loc = s.sloc in
  match s.s with
  | Decl (ty, names) ->
      seq
        (List.map
           (fun (name, init) ->
             (* the initialiser resolves before the name is declared *)
             let init = compile_init cx s.sloc ty init in
             let slot = declare cx name in
             fun fr -> fr.slots.(slot) <- ref (init fr))
           names)
  | ExprS e ->
      let c = compile_expr cx e in
      fun fr -> ignore (c fr)
  | If (c, t, f) ->
      let c = compile_cond cx c.eloc c in
      let t = compile_block cx t and f = compile_block cx f in
      fun fr -> if c fr then t fr else f fr
  | For (init, cond, step, body) ->
      in_scope cx (fun cx ->
          let init =
            match init with Some i -> compile_stmt cx i | None -> fun _ -> ()
          in
          let cond =
            match cond with Some c -> compile_cond cx c.eloc c | None -> fun _ -> true
          in
          let step =
            match step with
            | Some e ->
                let e = compile_expr cx e in
                fun fr -> ignore (e fr)
            | None -> fun _ -> ()
          in
          let body = compile_block cx body in
          fun fr ->
            init fr;
            let rec loop () =
              if cond fr then begin
                iterate st loc;
                match body fr with
                | () ->
                    step fr;
                    loop ()
                | exception Continue_exc ->
                    step fr;
                    loop ()
                | exception Break_exc -> ()
              end
            in
            loop ())
  | While (c, body) ->
      let cond = compile_cond cx c.eloc c and body = compile_block cx body in
      fun fr ->
        let rec loop () =
          if cond fr then begin
            iterate st loc;
            match body fr with
            | () | (exception Continue_exc) -> loop ()
            | exception Break_exc -> ()
          end
        in
        loop ()
  | DoWhile (body, c) ->
      let body = compile_block cx body and cond = compile_cond cx c.eloc c in
      fun fr ->
        let rec loop () =
          iterate st loc;
          match body fr with
          | () | (exception Continue_exc) -> if cond fr then loop ()
          | exception Break_exc -> ()
        in
        loop ()
  | Return None -> fun _ -> raise_notrace (Return_exc VUnit)
  | Return (Some e) ->
      let e = compile_expr cx e in
      fun fr -> raise_notrace (Return_exc (e fr))
  | Break -> fun _ -> raise_notrace Break_exc
  | Continue -> fun _ -> raise_notrace Continue_exc
  | Block body -> compile_block cx body
  | Directive (_, body) -> (
      (* directives execute their governed statement serially, in the
         enclosing scope *)
      match body with Some b -> compile_stmt cx b | None -> fun _ -> ())
  | DeleteS (e, _) ->
      let e = compile_expr cx e in
      fun fr -> ignore (e fr)

and compile_init cx loc ty init : frame -> value =
  let st = cx.st in
  match init with
  | Some ({ e = InitList ctor_args; _ } as e) -> compile_construct cx e.eloc ty ctor_args
  | Some e -> compile_expr cx e
  | None -> (
      match ty with
      | TNamed _ | TConst (TNamed _) -> (
          (* a default-constructed library/record object *)
          let c = compile_construct cx loc ty [] in
          fun fr -> try c fr with Runtime_error _ -> default_value st ty loc)
      | TArr _ | TConst _ -> fun _ -> default_value st ty loc
      | _ ->
          (* scalars: one immutable default serves every execution *)
          let v = default_value st ty loc in
          fun _ -> v)

(* --- expressions --- *)

and compile_args cx args = eval_list (List.map (compile_expr cx) args)

and eval_list (cs : (frame -> value) list) : frame -> value list =
  match cs with
  | [] -> fun _ -> []
  | [ a ] -> fun fr -> [ a fr ]
  | [ a; b ] ->
      fun fr ->
        let x = a fr in
        [ x; b fr ]
  | cs -> fun fr -> List.map (fun c -> c fr) cs

(* [e] as an OCaml bool; [loc] locates the conversion of a non-boolean
   value, as the enclosing construct did. *)
and compile_cond cx loc (e : expr) : frame -> bool =
  match e.e with
  | BoolE b -> fun _ -> b
  | Binary (LAnd, a, b) ->
      let a = compile_cond cx e.eloc a and b = compile_cond cx e.eloc b in
      fun fr -> a fr && b fr
  | Binary (LOr, a, b) ->
      let a = compile_cond cx e.eloc a and b = compile_cond cx e.eloc b in
      fun fr -> a fr || b fr
  | Binary (((Eq | Ne | Lt | Gt | Le | Ge) as op), a, b) ->
      let a = compile_expr cx a and b = compile_expr cx b in
      let test = compare_fn e.eloc op in
      fun fr ->
        let vb = b fr in
        test (a fr) vb
  | Unary (Not, a) ->
      let a = compile_cond cx e.eloc a in
      fun fr -> not (a fr)
  | _ ->
      let c = compile_expr cx e in
      fun fr -> to_bool loc (c fr)

and compile_expr cx (e : expr) : frame -> value =
  let st = cx.st and loc = e.eloc in
  match e.e with
  | IntE n ->
      let v = VInt n in
      fun _ -> v
  | FloatE f ->
      let v = VFloat f in
      fun _ -> v
  | BoolE b ->
      let v = VBool b in
      fun _ -> v
  | StrE s ->
      let v = VStr s in
      fun _ -> v
  | CharE c ->
      let v = VInt (Char.code c) in
      fun _ -> v
  | NullE -> fun _ -> VUnit
  | Var name -> (
      match resolve cx name with
      | Local slot -> fun fr -> !(fr.slots.(slot))
      | r ->
          let get = cell_getter r in
          let box = fbox st name and const = builtin_const loc name in
          fun fr ->
            let c = get fr in
            if c != unbound then !c
            else match box.fdef with Some f -> VFun f | None -> const fr)
  | Unary (op, a) -> compile_unary cx loc op a
  | Binary ((LAnd | LOr | Eq | Ne | Lt | Gt | Le | Ge), _, _) ->
      let c = compile_cond cx loc e in
      fun fr -> VBool (c fr)
  | Binary (op, a, b) ->
      let a = compile_expr cx a and b = compile_expr cx b in
      let f = arith_fn loc op in
      fun fr ->
        let vb = b fr in
        f (a fr) vb
  | Assign (op, lhs, rhs) -> compile_assign cx loc op lhs rhs
  | Ternary (c, a, b) ->
      let c = compile_cond cx loc c and a = compile_expr cx a and b = compile_expr cx b in
      fun fr -> if c fr then a fr else b fr
  | Call (callee, _, args) -> compile_call cx loc callee args
  | KernelLaunch (callee, cfg, args) -> compile_launch cx loc callee cfg args
  | Index (a, i) -> (
      let a = compile_expr cx a and i = compile_expr cx i in
      fun fr ->
        let va = a fr in
        let idx = to_int loc (i fr) in
        match va with
        | VArrF arr ->
            check_index loc idx (Array.length arr);
            VFloat arr.(idx)
        | VArrI _ | VRef _ -> place_get loc (index_place loc va idx)
        | _ -> err loc "cannot index a non-array value")
  | Member (a, fieldname, _) -> (
      let a = compile_expr cx a in
      fun fr ->
        match a fr with
        | VObj (_, fields) -> field loc fields fieldname
        | _ -> err loc "member access on non-object")
  | Lambda (_, params, body) ->
      List.iter (fun sc -> sc.captured <- true) cx.scopes;
      let proc = lazy (compile_proc st (cx.scopes :: cx.outer) params body) in
      fun fr -> VClosure { proc; env = fr }
  | Cast (ty, a) -> (
      let a = compile_expr cx a in
      match ty with
      | TInt | TLong | TSizeT | TConst (TInt | TLong | TSizeT) ->
          fun fr -> ( match a fr with VInt _ as v -> v | v -> VInt (to_int loc v))
      | TFloat | TDouble | TConst (TFloat | TDouble) ->
          fun fr -> ( match a fr with VFloat _ as v -> v | v -> VFloat (to_float loc v))
      | _ -> a)
  | New (ty, Some n) -> (
      let n = compile_expr cx n in
      match ty with
      | TInt | TConst TInt -> fun fr -> VArrI (make_i loc (to_int loc (n fr)))
      | _ -> fun fr -> VArrF (make_f loc (to_int loc (n fr))))
  | New (ty, None) -> fun _ -> default_value st ty loc
  | InitList es ->
      (* bare brace initialiser: keep evaluated elements in an object *)
      let es = compile_args cx es in
      fun fr -> obj "init-list" (List.mapi (fun i v -> (string_of_int i, v)) (es fr))
  | SizeofT ty ->
      let v =
        match ty with
        | TInt | TFloat | TConst (TInt | TFloat) -> VInt 4
        | TChar | TBool -> VInt 1
        | _ -> VInt 8
      in
      fun _ -> v

and compile_unary cx loc op a : frame -> value =
  match op with
  | Neg -> (
      let a = compile_expr cx a in
      fun fr ->
        match a fr with
        | VInt n -> VInt (-n)
        | VFloat f -> VFloat (-.f)
        | v -> err loc "cannot negate %s" (Format.asprintf "%a" pp_value v))
  | Not ->
      let a = compile_cond cx loc a in
      fun fr -> VBool (not (a fr))
  | BitNot ->
      let a = compile_expr cx a in
      fun fr -> VInt (lnot (to_int loc (a fr)))
  | PreInc | PreDec | PostInc | PostDec -> (
      let d = match op with PreInc | PostInc -> 1 | _ -> -1 in
      let post = match op with PostInc | PostDec -> true | _ -> false in
      let bump = function VInt n -> VInt (n + d) | old -> arith loc Add old (VInt d) in
      match local_slot cx a with
      | Some slot ->
          fun fr ->
            let c = fr.slots.(slot) in
            let old = !c in
            let updated = bump old in
            c := updated;
            if post then old else updated
      | None ->
          let place = compile_place cx a in
          fun fr ->
            let p = place fr in
            let old = place_get a.eloc p in
            let updated = bump old in
            place_set a.eloc p updated;
            if post then old else updated)
  | Deref -> (
      let a = compile_expr cx a in
      fun fr ->
        match a fr with
        | VRef r -> !r
        | (VArrF _ | VArrI _) as v -> place_get loc (index_place loc v 0)
        | v -> err loc "cannot dereference %s" (Format.asprintf "%a" pp_value v))
  | AddrOf -> (
      match a.e with
      | Var name ->
          let get = cell_getter (resolve cx name) in
          fun fr ->
            let c = get fr in
            if c == unbound then err loc "address of unknown variable %s" name else VRef c
      | _ ->
          let a = compile_expr cx a in
          fun fr -> VRef (ref (a fr)))

(* The target of an assignment or increment, located at the target. *)
and compile_place cx (e : expr) : frame -> place =
  let loc = e.eloc in
  match e.e with
  | Var name ->
      let get = cell_getter (resolve cx name) in
      fun fr ->
        let c = get fr in
        if c == unbound then err loc "assignment to unknown variable %s" name else PCell c
  | Index (a, i) ->
      let a = compile_expr cx a and i = compile_expr cx i in
      fun fr ->
        let va = a fr in
        index_place loc va (to_int loc (i fr))
  | Member (a, fieldname, _) -> (
      let a = compile_expr cx a in
      fun fr ->
        match a fr with
        | VObj (_, fields) -> PField (fields, fieldname)
        | _ -> err loc "member assignment on non-object")
  | Unary (Deref, a) -> (
      let a = compile_expr cx a in
      fun fr ->
        match a fr with
        | VRef r -> PCell r
        | VArrF _ as v -> index_place loc v 0
        | _ -> err loc "cannot assign through this pointer")
  | Call (callee, _, [ idx ]) -> (
      (* Kokkos view element access: a(i) = v *)
      let callee = compile_expr cx callee and idx = compile_expr cx idx in
      fun fr ->
        let va = callee fr in
        let i = to_int loc (idx fr) in
        match va with
        | VArrF _ | VArrI _ -> index_place loc va i
        | _ -> err loc "call-form assignment on non-view value")
  | _ -> fun _ -> err loc "expression is not assignable"

and compile_assign cx loc op (lhs : expr) rhs : frame -> value =
  let rhs = compile_expr cx rhs in
  let combine = match op with None -> None | Some bop -> Some (arith_fn loc bop) in
  let lloc = lhs.eloc in
  match (local_slot cx lhs, combine) with
  | Some slot, None ->
      fun fr ->
        let v = rhs fr in
        fr.slots.(slot) := v;
        v
  | Some slot, Some f ->
      fun fr ->
        let v = rhs fr in
        let c = fr.slots.(slot) in
        let stored = f !c v in
        c := stored;
        stored
  | _ ->
      let place = compile_place cx lhs in
      fun fr ->
        let v = rhs fr in
        let p = place fr in
        let stored = match combine with None -> v | Some f -> f (place_get lloc p) v in
        place_set lloc p stored;
        stored

(* The slot of [e] when it names a variable of this activation. *)
and local_slot cx (e : expr) =
  match e.e with
  | Var name -> ( match resolve cx name with Local slot -> Some slot | _ -> None)
  | _ -> None

and compile_call cx loc (callee : expr) args : frame -> value =
  let st = cx.st in
  (* A method call; or, for a name: a variable holding a callable, else a
     user function, else a builtin. *)
  match callee.e with
  | Member (recv, meth, _) ->
      let recv = compile_expr cx recv and args = compile_args cx args in
      fun fr -> eval_method st loc (recv fr) meth (fun () -> args fr)
  | Var name -> (
      let cargs = List.map (compile_expr cx) args in
      let args' = eval_list cargs in
      let box = fbox st name in
      let builtin = compile_builtin cx loc name args cargs in
      let get = cell_getter (resolve cx name) in
      fun fr ->
        let c = get fr in
        if c != unbound then
          let vargs = args' fr in
          call_value st loc !c vargs
        else
          match box.fdef with
          | Some f when f.f_body <> None -> call_func st box f (args' fr) loc
          | _ -> builtin fr)
  | _ ->
      let callee = compile_expr cx callee and args = compile_args cx args in
      fun fr ->
        let vcallee = callee fr in
        call_value st loc vcallee (args fr)

and eval_method st loc vrecv meth evargs =
  match (vrecv, meth) with
  (* SYCL queue *)
  | VObj ("sycl::queue", _), "submit" -> (
      match evargs () with
      | [ VClosure c ] -> call_closure st c [ obj "sycl::handler" [] ] loc
      | _ -> err loc "queue.submit expects a lambda")
  | VObj ("sycl::queue", _), ("wait" | "wait_and_throw") -> VUnit
  | VObj ("sycl::queue", _), "memcpy" -> (
      match evargs () with
      | [ dst; src; _bytes ] ->
          copy_array loc ~dst ~src;
          VUnit
      | _ -> err loc "queue.memcpy expects three arguments")
  | VObj ("sycl::queue", _), "parallel_for" -> sycl_parallel_for st loc (evargs ())
  | VObj ("sycl::queue", _), "copy" -> (
      match evargs () with
      | [ src; dst; _n ] ->
          copy_array loc ~dst ~src;
          VUnit
      | _ -> err loc "queue.copy expects three arguments")
  (* SYCL handler *)
  | VObj ("sycl::handler", _), "parallel_for" -> sycl_parallel_for st loc (evargs ())
  | VObj ("sycl::handler", _), "copy" -> (
      match evargs () with
      | [ src; dst ] ->
          copy_array loc ~dst ~src;
          VUnit
      | _ -> err loc "handler.copy expects two arguments")
  (* SYCL buffer / accessor *)
  | VObj ("sycl::buffer", fields), ("get_access" | "get_host_access") -> field loc fields "data"
  | VObj ("sycl::buffer", fields), "size" -> (
      match field loc fields "data" with
      | VArrF a -> VInt (Array.length a)
      | VArrI a -> VInt (Array.length a)
      | _ -> VInt 0)
  (* RAJA reducers *)
  | VObj ("RAJA::ReduceSum", fields), "get" -> field loc fields "acc"
  (* TBB blocked_range *)
  | VObj ("tbb::blocked_range", fields), "begin" -> field loc fields "b"
  | VObj ("tbb::blocked_range", fields), "end" -> field loc fields "e"
  (* dim3-like structs and Kokkos views fall through to errors *)
  | VObj (tag, _), m -> err loc "unknown method %s on %s" m tag
  | VArrF a, "size" -> VInt (Array.length a)
  | _, m -> err loc "method call %s on non-object" m

(* [f first .. last-1], each index one loop iteration of the budget *)
and for_range st loc first last c =
  for i = first to last - 1 do
    iterate st loc;
    ignore (call_closure st c [ VInt i ] loc)
  done;
  VUnit

and sycl_parallel_for st loc args =
  match args with
  | [ VObj ("sycl::range", fields); VClosure c ] | [ VObj ("sycl::nd_range", fields); VClosure c ]
    ->
      for_range st loc 0 (to_int loc (field loc fields "n")) c
  | [ VInt n; VClosure c ] -> for_range st loc 0 n c
  | _ -> err loc "parallel_for expects (range, lambda)"

and compile_launch cx loc callee cfg args : frame -> value =
  (* CUDA/HIP triple-chevron launch: iterate the grid sequentially. *)
  let st = cx.st in
  match cfg with
  | [] | [ _ ] -> fun _ -> err loc "kernel launch expects <<<grid, block>>>"
  | g :: b :: _ ->
      let g = compile_expr cx g and b = compile_expr cx b in
      let args = compile_args cx args in
      let kernel =
        match callee.e with
        | Var name -> (
            let box = fbox st name in
            fun () ->
              match box.fdef with Some f -> (box, f) | None -> err loc "unknown kernel %s" name)
        | _ -> fun () -> err loc "kernel launch callee must be a function name"
      in
      let grid_dim = gbox st "gridDim" and block_dim = gbox st "blockDim" in
      let block_idx = gbox st "blockIdx" and thread_idx = gbox st "threadIdx" in
      let dim3 x = obj "dim3" [ ("x", VInt x); ("y", VInt 1); ("z", VInt 1) ] in
      fun fr ->
        let grid = to_int loc (g fr) in
        let block = to_int loc (b fr) in
        let box, f = kernel () in
        let vargs = args fr in
        grid_dim.cell <- ref (dim3 grid);
        block_dim.cell <- ref (dim3 block);
        for bi = 0 to grid - 1 do
          block_idx.cell <- ref (dim3 bi);
          for t = 0 to block - 1 do
            iterate st loc;
            thread_idx.cell <- ref (dim3 t);
            ignore (call_func st box f vargs loc)
          done
        done;
        VUnit

(* --- named builtins --- *)

and compile_builtin cx loc name args cargs : frame -> value =
  let st = cx.st in
  let ev = eval_list cargs in
  let f1 fn =
    match cargs with
    | [ a ] -> fun fr -> VFloat (fn (to_float loc (a fr)))
    | _ ->
        fun fr ->
          ignore (ev fr);
          err loc "%s expects one argument" name
  in
  let f2 fn fr =
    match ev fr with
    | [ a; b ] -> VFloat (fn (to_float loc a) (to_float loc b))
    | _ -> err loc "%s expects two arguments" name
  in
  match name with
  (* math *)
  | "sqrt" | "std::sqrt" | "sycl::sqrt" -> f1 sqrt
  | "fabs" | "std::fabs" | "std::abs" | "sycl::fabs" -> f1 Float.abs
  | "abs" -> (
      fun fr ->
        match ev fr with
        | [ VInt n ] -> VInt (Stdlib.abs n)
        | [ v ] -> VFloat (Float.abs (to_float loc v))
        | _ -> err loc "abs expects one argument")
  | "exp" | "std::exp" -> f1 exp
  | "log" | "std::log" -> f1 log
  | "cos" | "std::cos" -> f1 cos
  | "sin" | "std::sin" -> f1 sin
  | "floor" | "std::floor" -> f1 Float.floor
  | "ceil" | "std::ceil" -> f1 Float.ceil
  | "pow" | "std::pow" -> f2 ( ** )
  | "fmin" | "std::fmin" -> f2 Float.min
  | "fmax" | "std::fmax" -> f2 Float.max
  | "fmod" -> f2 Float.rem
  | "min" | "std::min" -> (
      fun fr ->
        match ev fr with
        | [ VInt a; VInt b ] -> VInt (Stdlib.min a b)
        | [ a; b ] -> VFloat (Float.min (to_float loc a) (to_float loc b))
        | _ -> err loc "min expects two arguments")
  | "max" | "std::max" -> (
      fun fr ->
        match ev fr with
        | [ VInt a; VInt b ] -> VInt (Stdlib.max a b)
        | [ a; b ] -> VFloat (Float.max (to_float loc a) (to_float loc b))
        | _ -> err loc "max expects two arguments")
  (* io *)
  | "printf" | "fprintf" -> (
      fun fr ->
        match ev fr with
        | VStr fmtstr :: rest ->
            Buffer.add_string st.out (format_printf loc fmtstr rest);
            VInt 0
        | _ :: VStr fmtstr :: rest ->
            Buffer.add_string st.out (format_printf loc fmtstr rest);
            VInt 0
        | _ -> err loc "printf expects a format string")
  | "exit" -> fun fr -> raise_notrace (Return_exc (match ev fr with [ v ] -> v | _ -> VInt 0))
  (* allocation *)
  | "malloc" -> (
      let ty = match args with [ size_expr ] -> sizeof_type_of size_expr | _ -> None in
      fun fr ->
        match ev fr with
        | [ bytes ] -> alloc_array loc ty bytes
        | _ -> err loc "malloc expects one argument")
  | "free" | "sycl::free" -> fun _ -> VUnit
  (* CUDA / HIP runtime *)
  | "cudaMalloc" | "hipMalloc" -> (
      let ty = match args with [ _; size_expr ] -> sizeof_type_of size_expr | _ -> None in
      fun fr ->
        match ev fr with
        | [ VRef r; bytes ] ->
            r := alloc_array loc ty bytes;
            VInt 0
        | _ -> err loc "%s expects (&ptr, bytes)" name)
  | "cudaMemcpy" | "hipMemcpy" -> (
      fun fr ->
        match ev fr with
        | dst :: src :: _ ->
            copy_array loc ~dst ~src;
            VInt 0
        | _ -> err loc "%s expects (dst, src, bytes, kind)" name)
  | "cudaFree" | "hipFree" | "cudaDeviceSynchronize" | "hipDeviceSynchronize"
  | "cudaGetLastError" | "hipGetLastError" ->
      fun _ -> VInt 0
  | "cudaMemset" | "hipMemset" -> (
      fun fr ->
        match ev fr with
        | [ VArrF arr; v; _bytes ] ->
            Array.fill arr 0 (Array.length arr) (to_float loc v);
            VInt 0
        | [ VArrI arr; v; _bytes ] ->
            Array.fill arr 0 (Array.length arr) (to_int loc v);
            VInt 0
        | _ -> err loc "%s expects (ptr, value, bytes)" name)
  | "atomicAdd" | "atomicAdd_system" -> (
      fun fr ->
        match ev fr with
        | [ VRef r; v ] ->
            let cur = to_float loc !r in
            r := VFloat (cur +. to_float loc v);
            VFloat cur
        | _ -> err loc "atomicAdd expects (&x, v)")
  (* OpenMP runtime *)
  | "omp_get_num_threads" | "omp_get_max_threads" -> fun _ -> VInt 1
  | "omp_get_thread_num" -> fun _ -> VInt 0
  | "omp_get_wtime" ->
      fun _ ->
        st.steps <- st.steps + 1;
        VFloat (float_of_int st.steps *. 1e-9)
  (* SYCL free functions *)
  | "sycl::malloc_shared" | "sycl::malloc_device" | "sycl::malloc_host" -> (
      let ty = match args with [ size_expr; _ ] -> sizeof_type_of size_expr | _ -> None in
      fun fr ->
        match ev fr with
        | [ bytes; _ ] -> alloc_array loc ty bytes
        | _ -> err loc "%s expects (bytes, queue)" name)
  (* Kokkos *)
  | "Kokkos::initialize" | "Kokkos::finalize" | "Kokkos::fence" -> fun _ -> VUnit
  | "Kokkos::parallel_for" -> (
      fun fr ->
        match ev fr with
        | [ VStr _; VInt n; VClosure c ] | [ VInt n; VClosure c ] -> for_range st loc 0 n c
        | _ -> err loc "Kokkos::parallel_for expects (label, n, lambda)")
  | "Kokkos::parallel_reduce" -> (
      fun fr ->
        match ev fr with
        | [ VStr _; VInt n; VClosure c; acc ] | [ VInt n; VClosure c; acc ] ->
            let accr = match acc with VRef r -> r | _ -> ref acc in
            accr := VFloat 0.0;
            for i = 0 to n - 1 do
              iterate st loc;
              ignore (call_closure st c [ VInt i; VRef accr ] loc)
            done;
            VUnit
        | _ -> err loc "Kokkos::parallel_reduce expects (label, n, lambda, result)")
  | "Kokkos::deep_copy" -> (
      fun fr ->
        match ev fr with
        | [ dst; src ] ->
            copy_array loc ~dst ~src;
            VUnit
        | _ -> err loc "Kokkos::deep_copy expects (dst, src)")
  (* RAJA *)
  | "RAJA::forall" -> (
      fun fr ->
        match ev fr with
        | [ VObj ("RAJA::RangeSegment", fields); VClosure c ] ->
            let b = to_int loc (field loc fields "b") in
            let e = to_int loc (field loc fields "e") in
            for_range st loc b e c
        | _ -> err loc "RAJA::forall expects (range, lambda)")
  (* TBB *)
  | "tbb::parallel_for" -> (
      fun fr ->
        match ev fr with
        | [ range; VClosure c ] ->
            ignore (call_closure st c [ range ] loc);
            VUnit
        | _ -> err loc "tbb::parallel_for expects (range, lambda)")
  | "tbb::parallel_reduce" -> (
      fun fr ->
        match ev fr with
        | [ range; init; VClosure body; VClosure join ] ->
            let partial = call_closure st body [ range; init ] loc in
            call_closure st join [ partial; init ] loc
        | _ -> err loc "tbb::parallel_reduce expects (range, init, body, join)")
  (* StdPar *)
  | "std::for_each" -> (
      fun fr ->
        match ev fr with
        | [ _policy; VInt first; VInt last; VClosure c ] -> for_range st loc first last c
        | _ -> err loc "std::for_each expects (policy, first, last, lambda)")
  | "std::transform_reduce" -> (
      fun fr ->
        match ev fr with
        | [ _policy; VInt first; VInt last; init; VClosure reduce; VClosure transform ] ->
            let acc = ref init in
            for i = first to last - 1 do
              iterate st loc;
              let t = call_closure st transform [ VInt i ] loc in
              acc := call_closure st reduce [ !acc; t ] loc
            done;
            !acc
        | _ ->
            err loc
              "std::transform_reduce expects (policy, first, last, init, reduce, transform)")
  | "counting_iterator" | "thrust::counting_iterator" -> (
      fun fr ->
        match ev fr with [ v ] -> v | _ -> err loc "counting_iterator expects one argument")
  (* misc *)
  | "assert" -> (
      fun fr ->
        match ev fr with
        | [ v ] -> if to_bool loc v then VUnit else err loc "assertion failed"
        | _ -> err loc "assert expects one argument")
  | "__syncthreads" | "__threadfence" -> fun _ -> VUnit
  | _ -> (
      (* constructor syntax in expression position: sycl::range<1>(n),
         tbb::blocked_range<int>(0, n), dim3(g), struct literals... *)
      let c = construct cx loc (TNamed (name, [])) ev in
      fun fr ->
        match c fr with v -> v | exception Runtime_error _ -> err loc "unknown function %s" name)

and compile_construct cx loc ty ctor_args = construct cx loc ty (compile_args cx ctor_args)

(* Constructor-style initialisers for library types; [ev] evaluates the
   constructor arguments. *)
and construct cx loc ty ev : frame -> value =
  let st = cx.st in
  match ty with
  | TNamed (name, targs) -> (
      match name with
      | "sycl::queue" -> fun _ -> obj "sycl::queue" []
      | "sycl::range" | "sycl::nd_range" -> (
          fun fr ->
            match ev fr with
            | [ n ] | [ n; _ ] -> obj "sycl::range" [ ("n", n) ]
            | _ -> err loc "sycl::range expects a size")
      | "sycl::buffer" -> (
          fun fr ->
            match ev fr with
            | [ VInt n ] ->
                let data =
                  match targs with
                  | TyArg TInt :: _ -> VArrI (make_i loc n)
                  | _ -> VArrF (make_f loc n)
                in
                obj "sycl::buffer" [ ("data", data) ]
            | [ ((VArrF _ | VArrI _) as data); _ ] | [ ((VArrF _ | VArrI _) as data) ] ->
                obj "sycl::buffer" [ ("data", data) ]
            | _ -> err loc "sycl::buffer expects a size or host data")
      | "Kokkos::View" -> (
          fun fr ->
            match ev fr with
            | [ VStr _; VInt n ] | [ VInt n ] -> (
                match targs with
                | TyArg (TPtr TInt) :: _ -> VArrI (make_i loc n)
                | _ -> VArrF (make_f loc n))
            | _ -> err loc "Kokkos::View expects (label, n)")
      | "RAJA::RangeSegment" -> (
          fun fr ->
            match ev fr with
            | [ b; e ] -> obj "RAJA::RangeSegment" [ ("b", b); ("e", e) ]
            | _ -> err loc "RAJA::RangeSegment expects (begin, end)")
      | "RAJA::ReduceSum" -> (
          fun fr ->
            match ev fr with
            | [ init ] -> obj "RAJA::ReduceSum" [ ("acc", init) ]
            | [] -> obj "RAJA::ReduceSum" [ ("acc", VFloat 0.0) ]
            | _ -> err loc "RAJA::ReduceSum expects an initial value")
      | "tbb::blocked_range" -> (
          fun fr ->
            match ev fr with
            | [ b; e ] -> obj "tbb::blocked_range" [ ("b", b); ("e", e) ]
            | _ -> err loc "tbb::blocked_range expects (begin, end)")
      | "dim3" -> (
          fun fr ->
            match ev fr with
            | [ x ] -> obj "dim3" [ ("x", x); ("y", VInt 1); ("z", VInt 1) ]
            | _ -> err loc "dim3 expects one argument")
      | _ -> (
          fun fr ->
            match Hashtbl.find_opt st.records name with
            | Some r ->
                let vs = ev fr in
                obj name
                  (List.mapi
                     (fun i (fty, fname) ->
                       ( fname,
                         match List.nth_opt vs i with
                         | Some v -> v
                         | None -> default_value st fty loc ))
                     r.r_fields)
            | None -> err loc "cannot construct unknown type %s" name))
  | _ -> fun _ -> err loc "constructor initialiser on non-class type"

(* --- entry ------------------------------------------------------------- *)

let run ?(max_steps = 50_000_000) ?(entry = "main") ?(args = []) units =
  let st =
    {
      funcs = Hashtbl.create 64;
      records = Hashtbl.create 16;
      globals = Hashtbl.create 16;
      cov = Coverage.create ();
      out = Buffer.create 256;
      steps = 0;
      max_steps;
      iters = 0;
      depth = 0;
    }
  in
  let setup () =
    (* Collect functions, records and globals across all units; later
       definitions win (prototype then definition). *)
    List.iter
      (fun u ->
        List.iter
          (fun top ->
            match top with
            | Func f ->
                let box = fbox st f.f_name in
                if
                  f.f_body <> None
                  || match box.fdef with Some prev -> prev.f_body = None | None -> true
                then box.fdef <- Some f
            | Record r -> Hashtbl.replace st.records r.r_name r
            | GlobalVar (_, ty, name, init, loc) ->
                let v =
                  match init with
                  | Some e -> (
                      let cx = { st; next_slot = ref 0; scopes = []; outer = [] } in
                      try compile_expr cx e root with Runtime_error _ -> default_value st ty loc)
                  | None -> default_value st ty loc
                in
                (gbox st name).cell <- ref v
            | Using _ | TopDirective _ -> ())
          u.t_tops)
      units
  in
  let result =
    try
      setup ();
      match Hashtbl.find_opt st.funcs entry with
      | Some ({ fdef = Some f; _ } as box) -> Ok (call_func st box f args f.f_loc)
      | _ -> Error (Printf.sprintf "entry function %s not found" entry)
    with
    | Runtime_error (msg, loc) -> Error (Printf.sprintf "%s at %s" msg (Loc.to_string loc))
    | Return_exc v -> Ok v
    | Break_exc | Continue_exc -> Error "break/continue escaped a loop"
    | Stack_overflow -> Error "stack overflow"
  in
  { result; coverage = st.cov; output = Buffer.contents st.out; steps = st.steps }
