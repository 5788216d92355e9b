(* Counter snapshots and the traced probes that split a layer the
   program only exposes as one call (the C front-end inside
   [Index_engine.index_many], the TED DP inside [Tbmd.matrix], the codecs
   inside the cache loaders) into its public stages, run on the same
   inputs after the traced pass. *)

module Tel = Sv_perf.Telemetry
module Div = Sv_metrics.Divergence
module P = Sv_core.Pipeline
module Emit = Sv_corpus.Emit
module M = Sv_msgpack.Msgpack

(* Counters of one pass, named as the layer metrics they feed. *)
let ted_facts (d : Tel.ted) =
  let pruned = Tel.ted_pruned d in
  let f = float_of_int in
  [
    ("ted.dp_runs", f d.dp_runs);
    ("ted.strategy_left", f d.strategy_left);
    ("ted.strategy_right", f d.strategy_right);
    ("ted.scratch_grows", f d.scratch_grows);
    ("ted.equal_prunes", f d.equal_prunes);
    ("ted.size_prunes", f d.size_prunes);
    ("ted.hist_prunes", f d.hist_prunes);
    ("ted.pqg_prunes", f d.pqg_prunes);
    ("ted.pq_prunes", f d.pq_prunes);
    ("ted.cutoff_abandons", f d.cutoff_abandons);
    ( "ted.prune_ratio",
      if pruned + d.dp_runs = 0 then 0. else f pruned /. f (pruned + d.dp_runs) );
    ("tree.flat_compiles", f d.flat_compiles);
  ]

(* The pruning-cascade counters of bounded TED queries. *)
let cascade =
  [ "ted.equal_prunes"; "ted.size_prunes"; "ted.hist_prunes"; "ted.pqg_prunes"; "ted.pq_prunes";
    "ted.cutoff_abandons"; "ted.prune_ratio" ]

type snapshot = { ted : Tel.ted; intern : Sv_tree.Hashcons.stats }

let snapshot () = { ted = Tel.ted_snapshot (); intern = Div.intern_stats () }

let facts_since s0 =
  let s1 = snapshot () in
  let hits = s1.intern.hits - s0.intern.hits and misses = s1.intern.misses - s0.intern.misses in
  ted_facts (Tel.ted_diff ~before:s0.ted ~after:s1.ted)
  @ [
      ("tree.intern_distinct", float_of_int (s1.intern.distinct - s0.intern.distinct));
      ( "tree.intern_hit_ratio",
        if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses) );
    ]

let tsem_trees ixs =
  List.concat_map (fun (ix : P.indexed) -> List.map (fun u -> u.P.u_t_sem) ix.ix_units) ixs

(* Every stage of the C front-end and the interpreter, called the way
   [Pipeline.index] calls them, on every unit of [cbs]. *)
let frontend cbs =
  let tokens = ref 0 and steps = ref 0 in
  Trace.span "probe" (fun () ->
      List.iter
        (fun (cb : Emit.codebase) ->
          if cb.lang = `C then begin
            let resolve name = List.assoc_opt name cb.files in
            let asts =
              List.map
                (fun file ->
                  let src = List.assoc file cb.files in
                  let pp =
                    Trace.span "lang_c.preproc" (fun () ->
                        Sv_lang_c.Preproc.run ~resolve ~defines:cb.defines ~file src)
                  in
                  let toks = pp.Sv_lang_c.Preproc.tokens in
                  tokens := !tokens + List.length toks;
                  (* T_src before (per unit file) and after preprocessing *)
                  Trace.span "lang_c.cst" (fun () ->
                      List.iter
                        (fun f ->
                          if not (List.mem f cb.system_headers) then
                            Option.iter
                              (fun content -> ignore (Sv_lang_c.Cst.t_src ~file:f content))
                              (resolve f))
                        (file :: pp.Sv_lang_c.Preproc.deps);
                      ignore (Sv_lang_c.Cst.t_src_of_tokens ~file toks));
                  let ast =
                    Trace.span "lang_c.parse" (fun () ->
                        Sv_lang_c.Parser.parse_tokens ~file toks)
                  in
                  Trace.span "lang_c.sem_tree" (fun () ->
                      ignore (Sv_lang_c.Sem_tree.of_tunit ast);
                      let env name = Sv_lang_c.Ast.find_function ast name in
                      ignore
                        (Sv_lang_c.Sem_tree.of_tunit
                           (Sv_lang_c.Sem_tree.inline_calls ~env ~depth:3 ast)));
                  Trace.span "lang_c.lower" (fun () ->
                      ignore (Sv_ir.Ir.to_tree (Sv_lang_c.Lower.lower ~file [ ast ])));
                  ast)
                (cb.main_file :: cb.extra_units)
            in
            let o = Trace.span "interp.run" (fun () -> Sv_interp.Interp_c.run asts) in
            steps := !steps + o.Sv_interp.Interp_c.steps
          end)
        cbs);
  let stage_s =
    List.fold_left
      (fun acc n -> acc +. Trace.total n !Trace.recorded)
      0.
      [ "lang_c.preproc"; "lang_c.cst"; "lang_c.parse"; "lang_c.sem_tree"; "lang_c.lower" ]
  in
  [
    ("lang_c.tokens", float_of_int !tokens);
    ("lang_c.tokens_per_s", if stage_s > 0. then float_of_int !tokens /. stage_s else 0.);
    ("interp.steps", float_of_int !steps);
  ]

(* The T_sem trees the DP of a T_sem matrix compares: the positional
   unit pairs of every codebase pair of each corpus. *)
let matched_pairs corpora =
  List.concat_map
    (fun ixs ->
      let arr = Array.of_list ixs in
      let n = Array.length arr in
      List.concat
        (List.init n (fun i ->
             List.concat
               (List.init (n - i - 1) (fun d ->
                    let rec go a b =
                      match (a, b) with
                      | (u1 : P.unit_info) :: r1, (u2 : P.unit_info) :: r2 ->
                          (u1.u_t_sem, u2.u_t_sem) :: go r1 r2
                      | _ -> []
                    in
                    go arr.(i).P.ix_units arr.(i + d + 1).P.ix_units)))))
    corpora

(* The full TED DP over every matched T_sem unit pair of every codebase
   pair, with the flat kernels already compiled. *)
let ted_dp corpora =
  let s0 = snapshot () in
  let pairs = matched_pairs corpora in
  Trace.span "probe" (fun () ->
      List.iter
        (fun (a, b) -> ignore (Trace.span "ted.dp" (fun () -> Div.tree_distance a b)))
        pairs);
  let runs = (Tel.ted_diff ~before:s0.ted ~after:(Tel.ted_snapshot ())).dp_runs in
  let dp_s = Trace.total "ted.dp" !Trace.recorded in
  [
    ("ted.dp_s", dp_s);
    ("ted.us_per_dp", if runs = 0 then 0. else dp_s *. 1e6 /. float_of_int runs);
  ]

(* Decompress and decode each cache file, decode every index-cache
   payload (what a cache hit costs), then encode and compress again. *)
let codecs paths =
  Trace.span "probe" (fun () ->
      List.iter
        (fun path ->
          let bytes = Common.read_file path in
          let raw = Trace.span "svz.decompress" (fun () -> Sv_svz.Svz.decompress bytes) in
          let v = Trace.span "msgpack.decode" (fun () -> M.decode raw) in
          (match v with
          | M.Map kvs -> (
              match List.assoc_opt (M.Str "index") kvs with
              | Some (M.Arr es) ->
                  List.iter
                    (function
                      | M.Arr [ _; M.Bin p ] ->
                          ignore (Trace.span "msgpack.decode" (fun () -> M.decode p))
                      | _ -> ())
                    es
              | _ -> ())
          | _ -> ());
          let enc = Trace.span "msgpack.encode" (fun () -> M.encode v) in
          ignore (Trace.span "svz.compress" (fun () -> Sv_svz.Svz.compress enc)))
        paths)
