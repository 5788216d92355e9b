(* The three batch workloads: miniapp-cold, corpus-warm, corpus-ingest.

   Each timed pass runs in a fresh forked child (see [Common.in_child])
   and reports its wall time, its peak RSS, the canonical bytes of its
   output and its counters; the parent checks the output against the
   set-up reference and the counters against each other. *)

open Common
module IE = Sv_core.Index_engine
module T = Sv_core.Tbmd
module P = Sv_core.Pipeline
module C = Sv_cluster.Cluster
module Gen = Sv_gen.Gen
module IC = Sv_db.Index_cache
module TC = Sv_db.Codebase_db.Ted_cache
module MC = Sv_db.Metric_cache

type pass = {
  wall : float;
  window : float * float;
  rss_mb : float;
  rss0_mb : float;  (** resident set at the child's start, inherited *)
  out : string;
  facts : (string * float) list;
  bad : int;  (** failed checks made by [after] *)
  spans : Trace.span list;
}

type outcome = {
  setups : (float * float) list list;  (** the timed windows of each set-up *)
  windows : (float * float) list;  (** the window of each timed pass *)
  rss_mb : float;
  attempted : int;
  failed : int;
  layer : (string * float) list;
}

(* Set-ups per run; setup_s is the median of their times. *)
let setup_reps = 3

let fact name p = Option.value ~default:nan (List.assoc_opt name p.facts)

(* Run [body] as one pass in a fresh child. [body] returns the output
   bytes and the counters only it can see (cache hit counts); the
   process-global TED and intern counters are added here. [after] runs
   in the same child once the clock and the RSS reading are taken: checks
   and probes that need the pass's state. It returns more counters and
   the number of failed checks. *)
let pass ~traced ?(after = fun () -> ([], 0)) body =
  in_child (fun () ->
      let rss0_mb = status_mb "VmRSS" in
      Trace.on := traced;
      let s0 = Probes.snapshot () in
      let (out, own), window = timed (fun () -> Trace.span "pass" body) in
      let wall = snd window -. fst window in
      let facts = Probes.facts_since s0 @ own in
      let rss_mb = status_mb "VmHWM" in
      let more, bad = after () in
      { wall; window; rss_mb; rss0_mb; out; facts = facts @ more; bad; spans = Trace.take () })

(* Untraced passes until [seconds] have been spent, and at least three. *)
let timed_passes ~seconds run =
  let t0 = now () in
  let rec go acc =
    if List.length acc >= 3 && now () -. t0 >= seconds then List.rev acc
    else go (run () :: acc)
  in
  let passes = go [] in
  log "pass walls: %s" (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.wall) passes));
  log "peak RSS %.1f MB, of which %.1f MB inherited at the fork"
    (median (List.map (fun (p : pass) -> p.rss_mb) passes))
    (median (List.map (fun p -> p.rss0_mb) passes));
  passes

(* Counters that are a pure function of the inputs must repeat exactly
   across passes. *)
let deterministic =
  [ "ted.dp_runs"; "tree.intern_distinct"; "index_engine.cache_misses"; "db.ted_cache.misses";
    "vptree.evals_per_query" ]

let same_counters a b =
  List.for_all
    (fun n ->
      let x = fact n a and y = fact n b in
      Float.equal x y || (Float.is_nan x && Float.is_nan y))
    deterministic

(* Counters named in [zero] must read 0, those in [moved] more than 0. *)
let counter_faults ?(zero = []) ?(moved = []) facts =
  let bad test n = match List.assoc_opt n facts with Some v -> not (test v) | None -> true in
  List.length (List.filter (bad (fun v -> v = 0.)) zero)
  + List.length (List.filter (bad (fun v -> v > 0.)) moved)

(* A pass fails when its output differs from the reference, a check of
   its own failed, a counter broke [zero]/[moved], or a deterministic
   counter differs from the first pass. *)
let failures ~reference ?zero ?moved passes =
  match passes with
  | [] -> 0
  | first :: _ ->
      List.length
        (List.filter
           (fun p ->
             p.out <> reference || p.bad > 0
             || counter_faults ?zero ?moved p.facts > 0
             || not (same_counters first p))
           passes)

let cache_facts ?ic ?tc () =
  (match ic with
  | Some c ->
      [
        ("index_engine.cache_hits", float_of_int (IC.hits c));
        ("index_engine.cache_misses", float_of_int (IC.misses c));
      ]
  | None -> [])
  @
  match tc with
  | Some c ->
      let h = TC.hits c and m = TC.misses c in
      [
        ("db.ted_cache.misses", float_of_int m);
        ("db.ted_cache.hit_ratio", if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m));
      ]
  | None -> []

let span_metrics =
  [
    "index_engine.index_many"; "lang_c.preproc"; "lang_c.cst"; "lang_c.parse"; "lang_c.sem_tree";
    "lang_c.lower"; "interp.run"; "diff.source_matrix"; "tree.warm"; "tbmd.matrix";
    "cluster.row_euclidean"; "cluster.linkage"; "vptree.query"; "db.index_cache.load";
    "db.index_cache.save"; "db.ted_cache.load"; "db.ted_cache.save"; "db.metric_cache.load";
    "db.metric_cache.save"; "svz.decompress"; "svz.compress"; "msgpack.decode"; "msgpack.encode";
  ]

(* Per-layer numbers of the traced run: span totals by name, self time
   per layer over the traced pass and its probes, the pass counters, and
   the tracing overhead against [untraced], the median wall of untraced
   passes that do the same work. *)
let traced_layer ~untraced ~(tp : pass) ~matrix_pairs =
  let spans = Trace.absorb tp.spans in
  let matrix_s = Trace.total "tbmd.matrix" spans in
  List.map (fun n -> (n ^ "_s", Trace.total n spans)) span_metrics
  @ List.map (fun (l, v) -> ("self." ^ l ^ "_s", v)) (Trace.self_times spans)
  @ tp.facts
  @ [
      ("trace.overhead_s", tp.wall -. untraced);
      ("tbmd.pairs", float_of_int matrix_pairs);
      ( "tbmd.us_per_pair",
        if matrix_pairs = 0 then 0. else matrix_s *. 1e6 /. float_of_int matrix_pairs );
    ]

let outcome ~setups ~passes ~attempted ~failed ~layer =
  {
    setups;
    windows = List.map (fun (p : pass) -> p.window) passes;
    rss_mb = median (List.map (fun (p : pass) -> p.rss_mb) passes);
    attempted;
    failed;
    layer;
  }

let pairs_of n = n * (n - 1) / 2

let clustering ~traced ixs =
  if not traced then T.dendrogram T.TSem ixs
  else begin
    Trace.span "tree.warm" (fun () -> IE.warm_ted (Probes.tsem_trees ixs));
    let m = Trace.span "tbmd.matrix" (fun () -> T.matrix T.TSem ixs) in
    let e = Trace.span "cluster.row_euclidean" (fun () -> C.row_euclidean m) in
    (m, Trace.span "cluster.linkage" (fun () -> C.cluster C.Complete e))
  end

(* ------------------------------------------------------------------ *)
(* miniapp-cold                                                         *)

let miniapp_apps = [ "tealeaf"; "babelstream" ]

(* Matched unit pairs checked against the Zhang–Shasha reference, drawn
   from the smaller half of them: the reference DP is the slow one. *)
let zs_samples = 8

let miniapp_cold ~seed ~seconds ~traced ~dir =
  let corpora =
    List.map
      (fun app ->
        match Sv_core.Apps.corpus_of_app app with
        | Some cbs -> cbs
        | None -> failwith ("unknown app " ^ app))
      miniapp_apps
  in
  (* Set-up, [setup_reps] times: index both corpora serially with no
     cache, the first half of the serial in-process reference; the
     indexed payloads must agree. The first repetition then finishes the reference off
     the clock: the jobs = 1 dendrograms, which must run the DP, and a
     seeded sample of the unit pairs that DP compares against the
     Zhang–Shasha reference. *)
  let reps =
    List.init setup_reps (fun rep ->
        in_child (fun () ->
            let ixss, w = timed (fun () -> List.map (fun cbs -> IE.index_many ~jobs:1 cbs) corpora) in
            let digest =
              Digest.string
                (Sv_msgpack.Msgpack.encode
                   (Sv_msgpack.Msgpack.Arr (List.map IE.indexed_to_msgpack (List.concat ixss))))
            in
            if rep > 0 then (w, digest, "", 0)
            else begin
              let s0 = Probes.snapshot () in
              let out =
                String.concat ""
                  (List.map (fun ixs -> render_clustering (T.dendrogram T.TSem ixs)) ixss)
              in
              let moved = counter_faults ~moved:[ "ted.dp_runs" ] (Probes.facts_since s0) in
              let size (a, b) = Sv_tree.Tree.size a * Sv_tree.Tree.size b in
              let pairs =
                Probes.matched_pairs ixss
                |> List.stable_sort (fun p q -> compare (size p) (size q))
                |> Array.of_list
              in
              let zs_bad =
                List.length
                  (List.filter
                     (fun k ->
                       let a, b = pairs.(k) in
                       Sv_tree.Ted.distance ~eq:Sv_tree.Label.equal a b
                       <> Sv_metrics.Divergence.tree_distance a b)
                     (sample ~seed ~k:zs_samples (Array.length pairs / 2)))
              in
              (w, digest, out, moved + zs_bad)
            end))
  in
  let digest0, reference = match reps with (_, d, o, _) :: _ -> (d, o) | [] -> ("", "") in
  let ref_failed = List.length (List.filter (fun (_, d, _, bad) -> d <> digest0 || bad > 0) reps) in
  (* With tracing, the pass is followed by probes on the same inputs:
     the front-end stages, the bare DP, the codecs on the caches just
     written, and the matrices again at jobs = 2 through the pool, with
     the memo cleared and a fresh empty TED cache, as the serial pass
     had, for the speedup. *)
  let probes ixss () =
    let fe = Probes.frontend (List.concat corpora) in
    let dp = Probes.ted_dp ixss in
    Probes.codecs [ dir ^ "/index.cache"; dir ^ "/ted.cache" ];
    T.set_ted_cache (Some (TC.create ()));
    T.clear_memo ();
    T.set_jobs 2;
    let stats =
      List.map
        (fun ixs ->
          let _, t = time (fun () -> T.matrix T.TSem ixs) in
          (t, Sv_sched.Sched.last_stats ()))
        ixss
    in
    let sum f = List.fold_left (fun acc x -> acc +. f x) 0. stats in
    ( fe @ dp
      @ [
          ("sched.matrix_s", sum fst);
          ("sched.retries", sum (fun (_, s) -> float_of_int s.Sv_sched.Sched.retries));
          ("sched.respawns", sum (fun (_, s) -> float_of_int s.Sv_sched.Sched.respawns));
          ("sched.degraded", sum (fun (_, s) -> float_of_int s.Sv_sched.Sched.degraded));
        ],
      0 )
  in
  let run ~traced ~jobs () =
    let indexed = ref [] in
    pass ~traced
      ~after:(fun () -> if traced then probes !indexed () else ([], 0))
      (fun () ->
        let ic = IC.create () and tc = TC.create () in
        IE.set_cache (Some ic);
        T.set_ted_cache (Some tc);
        T.set_jobs jobs;
        let results =
          List.map
            (fun cbs ->
              let ixs = Trace.span "index_engine.index_many" (fun () -> IE.index_many ~jobs cbs) in
              indexed := !indexed @ [ ixs ];
              clustering ~traced ixs)
            corpora
        in
        Trace.span "db.index_cache.save" (fun () -> IC.save_file (dir ^ "/index.cache") ic);
        Trace.span "db.ted_cache.save" (fun () -> TC.save_file (dir ^ "/ted.cache") tc);
        ( String.concat "" (List.map render_clustering results),
          cache_facts ~ic ~tc ()
          @ [
              ("db.index_cache.bytes", float_of_int (file_size (dir ^ "/index.cache")));
              ("db.ted_cache.bytes", float_of_int (file_size (dir ^ "/ted.cache")));
            ] ))
  in
  let passes = timed_passes ~seconds (run ~traced:false ~jobs:2) in
  let failed = failures ~reference passes + ref_failed in
  let attempted = List.length passes + List.length reps in
  let setups = List.map (fun (w, _, _, _) -> [ w ]) reps in
  if not traced then outcome ~setups ~passes ~attempted ~failed ~layer:[]
  else begin
    (* The traced pass is serial, so Telemetry sees every DP; its
       overhead is taken against an untraced serial pass. *)
    let sp = run ~traced:false ~jobs:1 () in
    let tp = run ~traced:true ~jobs:1 () in
    let tp_bad = failures ~reference ~moved:[ "ted.dp_runs" ] [ sp; tp ] in
    let matrix_pairs = List.fold_left (fun acc cbs -> acc + pairs_of (List.length cbs)) 0 corpora in
    let layer =
      traced_layer ~untraced:sp.wall ~tp ~matrix_pairs
      @ [ ("sched.matrix_speedup", Trace.total "tbmd.matrix" tp.spans /. fact "sched.matrix_s" tp) ]
    in
    outcome ~setups ~passes ~attempted:(attempted + 2) ~failed:(failed + tp_bad) ~layer
  end

(* ------------------------------------------------------------------ *)
(* corpus-warm                                                          *)

let warm_variants = 24

(* The k-NN answers as (candidate index, raw distance) per query. *)
let knn_of arr hits =
  List.map
    (fun (ix, d, _) ->
      let rec find i = if arr.(i) == ix then i else find (i + 1) in
      (find 0, d))
    hits

let render_knn knn =
  String.concat "\n"
    (List.map (fun l -> String.concat " " (List.map (fun (i, d) -> Printf.sprintf "%d:%d" i d) l)) knn)

let corpus_warm ~seed ~seconds ~traced ~dir =
  let spec = { Gen.seed; count = warm_variants; mode = Gen.Grow; base = "all" } in
  let k = 3 in
  let ip = dir ^ "/index.cache" and tcp = dir ^ "/ted.cache" and mp = dir ^ "/metric.cache" in
  (* Set-up: generate the corpus and fill the three caches with one cold
     pass, [setup_reps] times; outputs and generated corpora must agree. The
     k-NN answers are checked against a brute-force sort of the raw
     matrix rows, off the clock. *)
  let setup () =
    let cbs, wgen = timed (fun () -> Gen.codebases spec) in
    let wfill, out, bad =
      in_child (fun () ->
          let (out, ixs, knn), w =
            timed (fun () ->
                let ic = IC.create () and tc = TC.create () and mc = MC.create () in
                IE.set_cache (Some ic);
                T.set_ted_cache (Some tc);
                T.set_metric_cache (Some mc);
                T.set_jobs 1;
                let ixs = IE.index_many ~jobs:1 cbs in
                let cl = T.dendrogram T.TSem ixs in
                let vp = T.vp_index T.TSem ixs in
                let arr = Array.of_list ixs in
                let knn = List.map (fun q -> knn_of arr (fst (T.vp_nearest vp ~k q))) ixs in
                IC.save_file ip ic;
                TC.save_file tcp tc;
                MC.save_file mp mc;
                (render_clustering cl ^ render_knn knn, arr, knn))
          in
          let n = Array.length ixs in
          let raw i j = fst (T.raw_divergence T.TSem ixs.(i) ixs.(j)) in
          let brute q =
            List.init n (fun j -> (j, raw q j))
            |> List.stable_sort (fun (i, a) (j, b) -> compare (a, i) (b, j))
            |> List.filteri (fun r _ -> r < k)
          in
          (w, out, List.length (List.filter Fun.id (List.mapi (fun q l -> l <> brute q) knn))))
    in
    ([ wgen; wfill ], cbs, out, bad)
  in
  (* only the first set-up's corpus and output are kept *)
  let w0, cbs, reference, bad0 = setup () in
  let later =
    List.init (setup_reps - 1) (fun _ ->
        let w, c, o, bad = setup () in
        (w, c <> cbs || o <> reference || bad > 0))
  in
  let ref_failed = Bool.to_int (bad0 > 0) + List.length (List.filter snd later) in
  let setups = w0 :: List.map fst later in
  let run traced () =
    pass ~traced
      ~after:(fun () -> if traced then Probes.codecs [ ip; tcp; mp ]; ([], 0))
      (fun () ->
        let ic = Trace.span "db.index_cache.load" (fun () -> IC.load_file ip) in
        let tc = Trace.span "db.ted_cache.load" (fun () -> TC.load_file tcp) in
        let mc = Trace.span "db.metric_cache.load" (fun () -> MC.load_file mp) in
        IE.set_cache (Some ic);
        T.set_ted_cache (Some tc);
        T.set_metric_cache (Some mc);
        T.set_jobs 1;
        let ixs = Trace.span "index_engine.index_many" (fun () -> IE.index_many ~jobs:1 cbs) in
        let cl = clustering ~traced ixs in
        let vp = Trace.span "vptree.build" (fun () -> T.vp_index T.TSem ixs) in
        let answers = Trace.span "vptree.query" (fun () -> List.map (fun q -> T.vp_nearest vp ~k q) ixs) in
        Trace.span "db.index_cache.save" (fun () -> IC.save_file ip ic);
        Trace.span "db.ted_cache.save" (fun () -> TC.save_file tcp tc);
        Trace.span "db.metric_cache.save" (fun () -> MC.save_file mp mc);
        let arr = Array.of_list ixs in
        let evals = List.fold_left (fun acc (_, e) -> acc + e) 0 answers in
        let n = List.length ixs in
        ( render_clustering cl ^ render_knn (List.map (fun (h, _) -> knn_of arr h) answers),
          cache_facts ~ic ~tc ()
          @ [
              ("vptree.build_evals", float_of_int (T.vp_build_evals vp));
              ("vptree.evals_per_query", float_of_int evals /. float_of_int n);
              ("vptree.brute_evals_per_query", float_of_int n);
              ("db.index_cache.bytes", float_of_int (file_size ip));
              ("db.ted_cache.bytes", float_of_int (file_size tcp));
            ] ))
  in
  (* a warm pass does no DP, misses no cache and builds no VP-tree *)
  let zero = [ "ted.dp_runs"; "index_engine.cache_misses"; "db.ted_cache.misses"; "vptree.build_evals" ] in
  let passes = timed_passes ~seconds (run false) in
  let failed = failures ~reference ~zero passes + ref_failed in
  let attempted = List.length passes + List.length setups in
  if not traced then outcome ~setups ~passes ~attempted ~failed ~layer:[]
  else begin
    let tp = run true () in
    let tp_bad = failures ~reference ~zero [ tp ] in
    let untraced = median (List.map (fun p -> p.wall) passes) in
    let layer = traced_layer ~untraced ~tp ~matrix_pairs:(pairs_of warm_variants) in
    outcome ~setups ~passes ~attempted:(attempted + 1) ~failed:(failed + tp_bad) ~layer
  end

(* ------------------------------------------------------------------ *)
(* corpus-ingest                                                        *)

let ingest_variants = 40
let source_samples = 8

(* Eq. (4)'s Source divergence of two codebases recomputed with the
   quadratic DP oracle: positional unit pairs, unmatched units in full. *)
let source_dp (c1 : P.indexed) (c2 : P.indexed) =
  let lines (u : P.unit_info) = Array.of_list u.u_lines in
  let rec go a b =
    match (a, b) with
    | u1 :: r1, u2 :: r2 ->
        Sv_diff.Diff.edit_distance_dp ~eq:String.equal (lines u1) (lines u2) + go r1 r2
    | u :: r, [] | [], u :: r -> List.length u.P.u_lines + go r []
    | [], [] -> 0
  in
  go c1.ix_units c2.ix_units

let corpus_ingest ~seed ~seconds ~traced ~dir:_ =
  let spec = { Gen.seed; count = ingest_variants; mode = Gen.Mutate; base = "babelstream" } in
  (* Set-up, [setup_reps] times: generate the corpus; only the first copy
     is kept. *)
  let cbs, w0 = timed (fun () -> Gen.codebases spec) in
  let later =
    List.init (setup_reps - 1) (fun _ ->
        let c, w = timed (fun () -> Gen.codebases spec) in
        ([ w ], c <> cbs))
  in
  let ref_failed = List.length (List.filter snd later) in
  let setups = [ w0 ] :: List.map fst later in
  let n = List.length cbs in
  let pairs = Array.of_list (List.concat (List.init n (fun i -> List.init i (fun j -> (j, i))))) in
  let sampled = List.map (fun k -> pairs.(k)) (sample ~seed ~k:source_samples (Array.length pairs)) in
  let ixs_out = ref [||] in
  let run traced () =
    pass ~traced
      ~after:(fun () ->
        let arr = !ixs_out in
        let fe = if traced then Probes.frontend cbs else [] in
        ( fe,
          List.length
            (List.filter
               (fun (i, j) -> fst (T.raw_divergence T.Source arr.(i) arr.(j)) <> source_dp arr.(i) arr.(j))
               sampled) ))
      (fun () ->
        IE.set_cache None;
        T.set_ted_cache None;
        T.set_jobs 1;
        let ixs = Trace.span "index_engine.index_many" (fun () -> IE.index_many ~jobs:1 cbs) in
        let sloc = Trace.span "tbmd.matrix" (fun () -> T.matrix T.SLOC ixs) in
        let lloc = Trace.span "tbmd.matrix" (fun () -> T.matrix T.LLOC ixs) in
        let src = Trace.span "diff.source_matrix" (fun () -> T.matrix T.Source ixs) in
        ixs_out := Array.of_list ixs;
        (String.concat "" (List.map render_matrix [ sloc; lloc; src ]), []))
  in
  let passes = timed_passes ~seconds (run false) in
  let reference = match passes with p :: _ -> p.out | [] -> "" in
  let failed = failures ~reference passes + ref_failed in
  let attempted = List.length passes + List.length setups in
  if not traced then outcome ~setups ~passes ~attempted ~failed ~layer:[]
  else begin
    let tp = run true () in
    let tp_bad = failures ~reference [ tp ] in
    let untraced = median (List.map (fun p -> p.wall) passes) in
    let layer =
      traced_layer ~untraced ~tp ~matrix_pairs:(2 * pairs_of n)
      @ [ ("diff.pairs", float_of_int (pairs_of n)) ]
    in
    outcome ~setups ~passes ~attempted:(attempted + 1) ~failed:(failed + tp_bad) ~layer
  end
