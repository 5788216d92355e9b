(* Reproduction harness: regenerates every table and figure of the
   paper's evaluation (Tables I-III, Figs. 4-15), plus the artifact
   checks (corpus verification, Codebase DB stats) and Bechamel timings
   of the computational kernels.

   Usage: main.exe [experiment ...]
   with experiments in {table1 table2 table3 fig4 ... fig15 verify db
   kernels all}. Default: all. *)

module Pipeline = Sv_core.Pipeline
module Tbmd = Sv_core.Tbmd
module Report = Sv_report.Report
module Pmodel = Sv_perf.Pmodel
module Platform = Sv_perf.Platform
module Cluster = Sv_cluster.Cluster

let section title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 72 '=') title (String.make 72 '=')

(* ------------------------------------------------------------------ *)
(* machine-readable timings                                            *)
(* ------------------------------------------------------------------ *)

(* Experiments that measure something append an entry here; the run is
   written as one JSON object on exit (SV_BENCH_JSON, default
   BENCH_PR4.json), so the perf trajectory is tracked across PRs instead
   of only printed to stdout. *)
module J = Sv_jsonx.Jsonx

let bench_records : (string * J.t) list ref = ref []
let record name v = bench_records := (name, v) :: !bench_records

(* `--smoke` (stripped from argv before experiment lookup) shrinks the
   experiments that have a size knob — today the corpus study — to
   seconds, which is how @bench-smoke runs them. *)
let smoke_flag = ref false

let () =
  at_exit (fun () ->
      match List.rev !bench_records with
      | [] -> ()
      | entries -> (
          let path =
            Option.value ~default:"BENCH_PR10.json" (Sys.getenv_opt "SV_BENCH_JSON")
          in
          try
            let oc = open_out path in
            output_string oc (J.to_string ~indent:2 (J.Obj entries));
            output_string oc "\n";
            close_out oc;
            Printf.eprintf "[bench] wrote %s\n%!" path
          with Sys_error msg ->
            Printf.eprintf "[bench] warning: %s not written: %s\n%!" path msg))

(* ------------------------------------------------------------------ *)
(* corpora, indexed once                                               *)
(* ------------------------------------------------------------------ *)

(* Corpus indexing goes through the engine: SV_INDEX_CACHE persists
   indexing results across bench invocations, SV_JOBS fans cold misses
   over the worker pool. Neither changes a byte of any experiment. *)
let () =
  match Sys.getenv_opt "SV_INDEX_CACHE" with
  | None -> ()
  | Some path ->
      Sv_core.Index_engine.set_cache (Some (Sv_db.Index_cache.load_file path));
      at_exit (fun () ->
          match Sv_core.Index_engine.cache () with
          | Some c ->
              Sv_db.Index_cache.save_file path c;
              Printf.eprintf "[bench] %s (saved to %s)\n%!"
                (Sv_db.Index_cache.stats c) path
          | None -> ())

let index_all name cbs =
  let t0 = Unix.gettimeofday () in
  let jobs =
    match Sys.getenv_opt "SV_JOBS" with
    | Some _ -> Sv_sched.Sched.default_jobs ()
    | None -> 1
  in
  let ixs = Sv_core.Index_engine.index_many ~jobs cbs in
  Printf.eprintf "[bench] indexed %s (%d models) in %.1fs\n%!" name (List.length ixs)
    (Unix.gettimeofday () -. t0);
  ixs

let tealeaf = lazy (index_all "TeaLeaf" (Sv_corpus.Tealeaf.all ()))
let cloverleaf = lazy (index_all "CloverLeaf" (Sv_corpus.Cloverleaf.all ()))
let minibude = lazy (index_all "miniBUDE" (Sv_corpus.Minibude.all ()))
let babelstream = lazy (index_all "BabelStream" (Sv_corpus.Babelstream.all ()))
let babelstream_f = lazy (index_all "BabelStream-Fortran" (Sv_corpus.Babelstream_f.all ()))

let find_model ixs id = List.find (fun (c : Pipeline.indexed) -> c.ix_model = id) ixs

(* ------------------------------------------------------------------ *)
(* tables                                                              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table I: codebase summarisation metrics";
  let module C = Sv_metrics.Catalog in
  let rows =
    List.map
      (fun (e : C.entry) ->
        [
          e.C.name;
          C.measure_name e.C.measure;
          String.concat ", "
            (List.map C.domain_name e.C.domains
            @ if e.C.language_agnostic then [ "Language agnostic" ] else []);
          String.concat " " e.C.variants;
        ])
      C.all
  in
  print_string (Report.table ~headers:[ "Metric"; "Measure"; "Domain"; "Variants" ] ~rows)

let table2 () =
  section "Table II: mini-apps and models";
  let row app ty models = [ app; ty; String.concat ", " models ] in
  let c_models =
    List.filter_map
      (fun id -> Option.map Sv_corpus.Emit.model_name (Sv_corpus.Emit.gen_for id))
      Sv_corpus.Emit.all_ids
  in
  let f_models = List.map Sv_corpus.Babelstream_f.model_name Sv_corpus.Babelstream_f.model_ids in
  print_string
    (Report.table
       ~headers:[ "Mini-app"; "Type"; "Models" ]
       ~rows:
         [
           row "BabelStream Fortran" "Memory BW" f_models;
           row "BabelStream C++" "Memory BW" c_models;
           row "miniBUDE" "Compute" c_models;
           row "TeaLeaf" "Structured grid" c_models;
           row "CloverLeaf" "Memory BW" c_models;
         ])

let table3 () =
  section "Table III: platform details for Phi benchmarks";
  let rows =
    List.map
      (fun (p : Platform.t) ->
        [
          p.Platform.vendor;
          p.Platform.name;
          p.Platform.abbr;
          p.Platform.topology;
          Printf.sprintf "%.0f GB/s" p.Platform.peak_bw_gbs;
          Printf.sprintf "%.0f GFLOP/s" p.Platform.peak_gflops;
        ])
      Platform.all
  in
  print_string
    (Report.table
       ~headers:[ "Vendor"; "Name"; "Abbr."; "Topology"; "Peak BW"; "Peak FP64" ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* clustering figures                                                  *)
(* ------------------------------------------------------------------ *)

let clustering_figure ~title ~metrics ixs =
  section title;
  List.iter
    (fun metric ->
      let m, d = Tbmd.dendrogram metric ixs in
      Printf.printf "\n--- %s ---\n" (Tbmd.metric_label metric);
      (match metric with
      | Tbmd.SLOC | Tbmd.LLOC ->
          (* absolute metrics: also show the raw values the clustering uses *)
          List.iter
            (fun (c : Pipeline.indexed) ->
              match Tbmd.absolute metric c with
              | Some v -> Printf.printf "  %-18s %d\n" c.ix_model_name v
              | None -> ())
            ixs
      | _ -> ());
      print_string (Report.dendrogram ~labels:m.Sv_cluster.Cluster.labels d))
    metrics

let fig4 () =
  let ixs = Lazy.force tealeaf in
  section "Fig. 4: TeaLeaf model clustering, using T_sem";
  let m, d = Tbmd.dendrogram Tbmd.TSem ixs in
  print_string
    (Report.heatmap
       ~row_labels:(Array.to_list m.Sv_cluster.Cluster.labels)
       ~col_labels:(Array.to_list m.Sv_cluster.Cluster.labels)
       m.Sv_cluster.Cluster.data);
  print_string (Report.dendrogram ~labels:m.Sv_cluster.Cluster.labels d)

let fig5 () =
  clustering_figure
    ~title:"Fig. 5: TeaLeaf model clustering dendrograms (6 metrics)"
    ~metrics:[ Tbmd.LLOC; Tbmd.SLOC; Tbmd.Source; Tbmd.TSrc; Tbmd.TSem; Tbmd.TIr ]
    (Lazy.force tealeaf)

let fig6 () =
  clustering_figure
    ~title:"Fig. 6: BabelStream Fortran model clustering dendrograms (6 metrics)"
    ~metrics:[ Tbmd.LLOC; Tbmd.SLOC; Tbmd.Source; Tbmd.TSrc; Tbmd.TSem; Tbmd.TIr ]
    (Lazy.force babelstream_f)

(* ------------------------------------------------------------------ *)
(* divergence-from-serial heatmaps (Figs. 7-8)                          *)
(* ------------------------------------------------------------------ *)

let divergence_heatmap ~title ixs =
  section title;
  let serial = find_model ixs "serial" in
  let models = List.filter (fun (c : Pipeline.indexed) -> c.ix_model <> "serial") ixs in
  let columns =
    [
      ("SLOC", (Tbmd.SLOC, Tbmd.Base));
      ("LLOC", (Tbmd.LLOC, Tbmd.Base));
      ("Source", (Tbmd.Source, Tbmd.Base));
      ("Source+pp", (Tbmd.Source, Tbmd.PP));
      ("T_src", (Tbmd.TSrc, Tbmd.Base));
      ("T_src+cov", (Tbmd.TSrc, Tbmd.Cov));
      ("T_sem", (Tbmd.TSem, Tbmd.Base));
      ("T_sem+i", (Tbmd.TSemI, Tbmd.Base));
      ("T_sem+cov", (Tbmd.TSem, Tbmd.Cov));
      ("T_ir", (Tbmd.TIr, Tbmd.Base));
    ]
  in
  let data =
    Array.of_list
      (List.map
         (fun c ->
           Array.of_list
             (List.map
                (fun (_, (m, v)) -> Tbmd.divergence ~variant:v m serial c)
                columns))
         models)
  in
  print_string
    (Report.heatmap
       ~row_labels:(List.map (fun (c : Pipeline.indexed) -> c.ix_model_name) models)
       ~col_labels:(List.map fst columns) data);
  (* the serial-vs-itself sanity column of §V-C *)
  let self =
    List.map (fun (_, (m, v)) -> Tbmd.divergence ~variant:v m serial serial) columns
  in
  Printf.printf "serial vs itself (all metrics): [%s]\n"
    (String.concat "; " (List.map (Printf.sprintf "%.2f") self))

let fig7 () =
  divergence_heatmap
    ~title:"Fig. 7: miniBUDE models, divergence from serial (0..1)"
    (Lazy.force minibude)

let fig8 () =
  divergence_heatmap
    ~title:"Fig. 8: CloverLeaf models, divergence from serial (0..1)"
    (Lazy.force cloverleaf)

(* ------------------------------------------------------------------ *)
(* migration (Figs. 9-10)                                               *)
(* ------------------------------------------------------------------ *)

let offload_ids = [ "omp-target"; "cuda"; "hip"; "sycl-usm"; "sycl-acc"; "kokkos" ]

let migration_figure ~title ~base_id () =
  let ixs = Lazy.force tealeaf in
  section title;
  let base = find_model ixs base_id in
  let targets =
    List.filter
      (fun (c : Pipeline.indexed) ->
        List.mem c.ix_model offload_ids && c.ix_model <> base_id)
      ixs
  in
  let metrics =
    [ (Tbmd.Source, Tbmd.Base); (Tbmd.TSrc, Tbmd.Base); (Tbmd.TSem, Tbmd.Base) ]
  in
  let rows = Sv_core.Migration.divergence_from ~base ~targets ~metrics in
  List.iter
    (fun (r : Sv_core.Migration.row) ->
      Printf.printf "\n%s:\n" r.Sv_core.Migration.target;
      print_string (Report.bars r.Sv_core.Migration.values))
    rows;
  (match Sv_core.Migration.cheapest ~metric:Tbmd.TSem rows with
  | Some (m, v) -> Printf.printf "\nlowest T_sem divergence from %s: %s (%.3f)\n" base_id m v
  | None -> ())

let fig9 = migration_figure ~title:"Fig. 9: model divergence from the serial TeaLeaf" ~base_id:"serial"
let fig10 = migration_figure ~title:"Fig. 10: model divergence from the CUDA TeaLeaf" ~base_id:"cuda"

(* ------------------------------------------------------------------ *)
(* performance portability (Figs. 11-15)                                *)
(* ------------------------------------------------------------------ *)

let cascade_figure ~title ~app () =
  section title;
  print_string
    (Report.cascade
       (Sv_perf.Cascade.cascade ~app ~models:Pmodel.all_parallel
          ~platforms:Platform.all))

let fig11 = cascade_figure ~title:"Fig. 11: TeaLeaf cascade plot (6 platforms)" ~app:Pmodel.tealeaf
let fig12 = cascade_figure ~title:"Fig. 12: CloverLeaf cascade plot (6 platforms)" ~app:Pmodel.cloverleaf

let navigation_figure ~title ~app ixs_lazy () =
  section title;
  let ixs = Lazy.force ixs_lazy in
  let serial = find_model ixs "serial" in
  let pts =
    Sv_core.Navigation.points ~app ~serial
      ~codebases:(List.filter (fun (c : Pipeline.indexed) -> c.ix_model <> "serial") ixs)
      ~platforms:Platform.all
  in
  print_string (Sv_core.Navigation.render pts)

let fig13 =
  navigation_figure ~title:"Fig. 13: CloverLeaf navigation chart (Phi vs TBMD)"
    ~app:Pmodel.cloverleaf cloverleaf

let fig14 =
  navigation_figure ~title:"Fig. 14: TeaLeaf navigation chart (Phi vs TBMD)"
    ~app:Pmodel.tealeaf tealeaf

let fig15 () =
  section "Fig. 15: navigation chart scenario — escaping an unportable model";
  let ixs = Lazy.force tealeaf in
  let serial = find_model ixs "serial" in
  let stages =
    Sv_core.Navigation.cuda_scenario ~app:Pmodel.tealeaf ~serial
      ~codebases:(List.filter (fun (c : Pipeline.indexed) -> c.ix_model <> "serial") ixs)
  in
  List.iter
    (fun (s : Sv_core.Navigation.scenario_stage) ->
      Printf.printf "stage %d (%s): %s\n" s.Sv_core.Navigation.stage
        (String.concat "+" s.Sv_core.Navigation.platform_abbrs)
        s.Sv_core.Navigation.description;
      Printf.printf "  Phi(CUDA) = %.3f" s.Sv_core.Navigation.phi_cuda;
      (match s.Sv_core.Navigation.best_alternative with
      | Some (m, v) -> Printf.printf "; best alternative: %s (Phi = %.3f)\n" m v
      | None -> print_newline ()))
    stages;
  (* the stage-3 chart over the two-GPU platform set *)
  let pts =
    Sv_core.Navigation.points ~app:Pmodel.tealeaf ~serial
      ~codebases:(List.filter (fun (c : Pipeline.indexed) -> c.ix_model <> "serial") ixs)
      ~platforms:[ Platform.h100; Platform.mi250x ]
  in
  print_string (Sv_core.Navigation.render pts)

(* ------------------------------------------------------------------ *)
(* artifact checks                                                     *)
(* ------------------------------------------------------------------ *)

let verify () =
  section "Artifact check: built-in verification of every port";
  let check name ixs =
    List.iter
      (fun (c : Pipeline.indexed) ->
        let ok, steps =
          match c.Pipeline.ix_verification with
          | Some v -> (v.Pipeline.v_ok, v.Pipeline.v_steps)
          | None -> (false, 0)
        in
        Printf.printf "  %-22s %-14s %-6s (%d steps)\n" name c.ix_model
          (if ok then "PASSED" else "FAILED")
          steps)
      ixs
  in
  check "BabelStream (C++)" (Lazy.force babelstream);
  check "BabelStream (Fortran)" (Lazy.force babelstream_f);
  check "miniBUDE" (Lazy.force minibude);
  check "TeaLeaf" (Lazy.force tealeaf);
  check "CloverLeaf" (Lazy.force cloverleaf)

let db () =
  section "Artifact check: Codebase DB round-trip and compression";
  List.iter
    (fun (c : Pipeline.indexed) ->
      let artifact = Pipeline.to_db c in
      let bytes = Sv_db.Codebase_db.save artifact in
      let reread = Sv_db.Codebase_db.load bytes in
      let ok =
        match reread with
        | Ok db -> db = artifact
        | Error _ -> false
      in
      Printf.printf "  %s  round-trip:%s\n" (Sv_db.Codebase_db.stats artifact)
        (if ok then "OK" else "FAILED"))
    (Lazy.force tealeaf)

(* ------------------------------------------------------------------ *)
(* kernel timings (bechamel)                                           *)
(* ------------------------------------------------------------------ *)

(* The engine tentpole: one full divergence matrix, timed serial, then
   fanned over the worker pool, then against a cold and a warm
   persistent TED cache — with a cross-check that every configuration
   produces the identical matrix. Under SV_FAULT (or `sv --fault`) the
   parallel run doubles as a chaos run: workers crash, hang and corrupt
   frames at the injected rates, the pool recovers, and the
   byte-identity check still must hold. *)
let ted_engine () =
  section "TED engine: serial vs parallel vs cached (BabelStream, T_sem)";
  let fault = Sv_sched.Sched.Fault.active () in
  let render (m : Cluster.matrix) =
    String.concat "\n"
      (Array.to_list
         (Array.map
            (fun row ->
              String.concat " "
                (Array.to_list (Array.map (Printf.sprintf "%.17g") row)))
            m.Cluster.data))
  in
  let ixs = Lazy.force babelstream in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let run ~jobs ~cache () =
    (* each configuration must recompute from scratch (modulo the TED
       cache under test), so the in-process memo is dropped every time *)
    Tbmd.clear_memo ();
    Tbmd.set_jobs jobs;
    Tbmd.set_ted_cache cache;
    Fun.protect
      ~finally:(fun () ->
        Tbmd.set_jobs 1;
        Tbmd.set_ted_cache None)
      (fun () -> Tbmd.matrix Tbmd.TSem ixs)
  in
  let serial_m, t_serial = wall (run ~jobs:1 ~cache:None) in
  let jobs = Sv_sched.Sched.default_jobs () in
  let par_m, t_par = wall (run ~jobs ~cache:None) in
  let pool = Sv_sched.Sched.last_stats () in
  let cache = Sv_db.Codebase_db.Ted_cache.create () in
  let cold_m, t_cold = wall (run ~jobs:1 ~cache:(Some cache)) in
  let warm_m, t_warm = wall (run ~jobs:1 ~cache:(Some cache)) in
  let same (a : Cluster.matrix) (b : Cluster.matrix) = a.Cluster.data = b.Cluster.data in
  Printf.printf "  %-24s %9.3fs\n" "serial (1 worker)" t_serial;
  Printf.printf "  %-24s %9.3fs  (%d workers, %.2fx)\n" "parallel" t_par jobs
    (t_serial /. Float.max 1e-9 t_par);
  Printf.printf "  %-24s %9.3fs\n" "cold TED cache" t_cold;
  Printf.printf "  %-24s %9.3fs  (%.2fx vs serial; %s)\n" "warm TED cache" t_warm
    (t_serial /. Float.max 1e-9 t_warm)
    (Sv_db.Codebase_db.Ted_cache.stats cache);
  if not (Sv_sched.Sched.Fault.is_none fault) then
    Printf.printf "  fault injection %s: %s\n"
      (Sv_sched.Sched.Fault.to_string fault)
      (Sv_sched.Sched.stats_to_string pool);
  let identical =
    same serial_m par_m && same serial_m cold_m && same serial_m warm_m
    && render serial_m = render par_m
  in
  Printf.printf "  matrices identical across configurations: %s\n"
    (if identical then "OK" else "MISMATCH");
  record "ted-engine"
    (J.Obj
       [
         ("serial_s", J.Float t_serial);
         ("parallel_s", J.Float t_par);
         ("jobs", J.Int jobs);
         ("cold_cache_s", J.Float t_cold);
         ("warm_cache_s", J.Float t_warm);
         ("warm_speedup_vs_serial", J.Float (t_serial /. Float.max 1e-9 t_warm));
         ("identical", J.Bool identical);
       ])

(* The PR 4 tentpole: run the indexing front-end over a BabelStream
   subset serially, through the worker pool, and against a cold and a
   warm persistent index cache, asserting every configuration yields
   byte-identical database artifacts. This is the @bench-smoke contract:
   a mismatch exits nonzero. SV_PROP_ITERS scales the model count the
   same way it scales the property suites. *)
let index_engine () =
  section "Index engine: serial vs parallel vs cached (BabelStream)";
  let all = Sv_corpus.Babelstream.all () in
  let prop_iters =
    match Sys.getenv_opt "SV_PROP_ITERS" with
    | Some s -> ( try int_of_string s with Failure _ -> 500)
    | None -> 500
  in
  let n = max 2 (min (List.length all) (prop_iters / 100)) in
  let cbs = List.filteri (fun i _ -> i < n) all in
  let artifact_bytes ixs =
    String.concat ""
      (List.map (fun ix -> Sv_db.Codebase_db.save (Pipeline.to_db ix)) ixs)
  in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let run ~jobs ~cache () =
    Sv_core.Index_engine.set_cache cache;
    Fun.protect
      ~finally:(fun () -> Sv_core.Index_engine.set_cache None)
      (fun () -> Sv_core.Index_engine.index_many ~jobs cbs)
  in
  let serial_ixs, t_serial = wall (run ~jobs:1 ~cache:None) in
  let jobs = max 2 (Sv_sched.Sched.default_jobs ()) in
  let par_ixs, t_par = wall (run ~jobs ~cache:None) in
  let pool = Sv_sched.Sched.last_stats () in
  let cache = Sv_db.Index_cache.create () in
  let cold_ixs, t_cold = wall (run ~jobs:1 ~cache:(Some cache)) in
  let warm_ixs, t_warm = wall (run ~jobs:1 ~cache:(Some cache)) in
  let sb = artifact_bytes serial_ixs in
  let identical =
    artifact_bytes par_ixs = sb
    && artifact_bytes cold_ixs = sb
    && artifact_bytes warm_ixs = sb
  in
  (* push the freshly indexed trees through the hash-consing layer (via a
     small distance matrix) and report the structure-sharing rate *)
  let (_ : Cluster.matrix) = Tbmd.matrix Tbmd.TSem serial_ixs in
  let istats = Sv_metrics.Divergence.intern_stats () in
  let warm_speedup = t_cold /. Float.max 1e-9 t_warm in
  Printf.printf "  %-26s %9.3fs  (%d models)\n" "cold index, serial" t_serial n;
  Printf.printf "  %-26s %9.3fs  (%d workers, %.2fx)\n" "cold index, parallel"
    t_par jobs
    (t_serial /. Float.max 1e-9 t_par);
  Printf.printf "  %-26s %9.3fs\n" "cold index cache" t_cold;
  Printf.printf "  %-26s %9.3fs  (%.2fx vs cold; %s)\n" "warm index cache"
    t_warm warm_speedup
    (Sv_db.Index_cache.stats cache);
  Printf.printf "  pool: %s\n" (Sv_sched.Sched.stats_to_string pool);
  let open Sv_tree.Hashcons in
  let shared =
    100.0 *. float_of_int istats.hits
    /. Float.max 1.0 (float_of_int (istats.hits + istats.misses))
  in
  Printf.printf
    "  intern table: %d distinct subtrees, %d labels, %d hits / %d misses \
     (%.1f%% shared)\n"
    istats.distinct istats.labels istats.hits istats.misses shared;
  Printf.printf "  artifacts byte-identical across configurations: %s\n"
    (if identical then "OK" else "MISMATCH");
  record "index-engine"
    (J.Obj
       [
         ("models", J.Int n);
         ("cold_serial_s", J.Float t_serial);
         ("cold_parallel_s", J.Float t_par);
         ("jobs", J.Int jobs);
         ("cold_cache_s", J.Float t_cold);
         ("warm_cache_s", J.Float t_warm);
         ("warm_speedup_vs_cold", J.Float warm_speedup);
         ("index_cache_hits", J.Int (Sv_db.Index_cache.hits cache));
         ("index_cache_misses", J.Int (Sv_db.Index_cache.misses cache));
         ("intern_distinct", J.Int istats.distinct);
         ("intern_hits", J.Int istats.hits);
         ("intern_misses", J.Int istats.misses);
         ("identical", J.Bool identical);
       ]);
  if not identical then begin
    Printf.eprintf "[bench] index-engine: artifact mismatch\n%!";
    exit 1
  end

(* The flat-array TED kernel against the pointer-tree Zhang–Shasha
   reference. The full T_sem matrix through [Tbmd.matrix] (the in-process
   memo dropped first) and the same matrix summed from [Ted.distance] over
   positionally matched units are rendered to text and compared
   byte-for-byte — a mismatch exits nonzero, which makes this part of the
   @bench-smoke contract. A single-pair microbenchmark isolates the
   kernels from indexing noise, and a bounded sweep exercises the pruning
   cascade; both the timings and the prune counters land in the JSON
   report. *)
let ted_core () =
  section "TED core: flat kernel vs Zhang\xe2\x80\x93Shasha (BabelStream, T_sem)";
  let module T = Sv_perf.Telemetry in
  let module Div = Sv_metrics.Divergence in
  let render (m : Cluster.matrix) =
    String.concat "\n"
      (Array.to_list
         (Array.map
            (fun row ->
              String.concat " "
                (Array.to_list (Array.map (Printf.sprintf "%.17g") row)))
            m.Cluster.data))
  in
  let ixs = Lazy.force babelstream in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let zs a b = Sv_tree.Ted.distance ~eq:Sv_tree.Label.equal a b in
  let run_flat () =
    Tbmd.clear_memo ();
    Tbmd.matrix Tbmd.TSem ixs
  in
  (* the reference: positional unit pairs, unmatched tails at full size,
     normalised by the target's T_sem size *)
  let run_zs () =
    let arr = Array.of_list ixs in
    let size (u : Pipeline.unit_info) = Sv_tree.Tree.size u.u_t_sem in
    let rec raw d us1 us2 =
      match (us1, us2) with
      | (u1 : Pipeline.unit_info) :: r1, (u2 : Pipeline.unit_info) :: r2 ->
          raw (d + zs u1.u_t_sem u2.u_t_sem) r1 r2
      | u :: r, [] | [], u :: r -> raw (d + size u) r []
      | [], [] -> d
    in
    let n = Array.length arr in
    let d = Array.make_matrix n n 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        d.(i).(j) <- raw 0 arr.(i).ix_units arr.(j).ix_units;
        d.(j).(i) <- d.(i).(j)
      done
    done;
    let dmax =
      Array.map (fun c -> List.fold_left (fun acc u -> acc + size u) 0 c.Pipeline.ix_units) arr
    in
    Cluster.of_fn
      (Array.map (fun c -> c.Pipeline.ix_model_name) arr)
      (fun i j -> if i = j then 0.0 else Div.normalised ~d:d.(i).(j) ~dmax:dmax.(j))
  in
  (* one untimed warm-up so indexing, canonisation and flat compilation
     never pollute either timed run *)
  let (_ : Cluster.matrix) = run_flat () in
  let zs_m, t_zs = wall run_zs in
  T.reset_ted ();
  let flat_m, t_flat = wall run_flat in
  let mtx = T.ted_snapshot () in
  let n = Array.length zs_m.Cluster.labels in
  let matrix_speedup = t_zs /. Float.max 1e-9 t_flat in
  let matrix_identical = render zs_m = render flat_m in
  Printf.printf "  %-28s %9.3fs  (%d models, %d pairs)\n" "matrix, zs reference"
    t_zs n
    (n * (n - 1) / 2);
  Printf.printf "  %-28s %9.3fs  (%.2fx)\n" "matrix, flat kernel" t_flat
    matrix_speedup;
  Printf.printf "  matrices byte-identical: %s\n"
    (if matrix_identical then "OK" else "MISMATCH");
  Printf.printf "  %s\n" (T.ted_to_string mtx);
  (* single-pair microbenchmark: the largest cross-model unit pair,
     repeated until stable, so the two kernels are compared with zero
     indexing or matrix bookkeeping in the loop *)
  let u1 = (List.hd (List.hd ixs).Pipeline.ix_units).Pipeline.u_t_sem in
  let u2 =
    (List.hd (List.nth ixs 1).Pipeline.ix_units).Pipeline.u_t_sem
  in
  let time_pair dist =
    let d = dist u1 u2 in
    let t0 = Unix.gettimeofday () in
    let once = dist u1 u2 in
    let t_once = Unix.gettimeofday () -. t0 in
    assert (once = d);
    let reps = max 5 (min 500 (int_of_float (0.3 /. Float.max 1e-6 t_once))) in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (dist u1 u2)
    done;
    (d, (Unix.gettimeofday () -. t0) /. float_of_int reps, reps)
  in
  let d_zs, pair_zs_s, reps_zs = time_pair zs in
  let d_flat, pair_flat_s, reps_flat = time_pair Div.tree_distance in
  let pair_speedup = pair_zs_s /. Float.max 1e-9 pair_flat_s in
  let pair_identical = d_zs = d_flat in
  Printf.printf "  %-28s %9.0fns  (d=%d, %d reps)\n" "pair, zs reference"
    (pair_zs_s *. 1e9) d_zs reps_zs;
  Printf.printf "  %-28s %9.0fns  (%.2fx, %d reps)\n" "pair, flat kernel"
    (pair_flat_s *. 1e9) pair_speedup reps_flat;
  Printf.printf "  pair distances identical: %s\n"
    (if pair_identical then "OK" else "MISMATCH");
  (* bounded sweep: every cross-model unit pair under a tight cutoff —
     most pairs are far apart, so the cascade should settle nearly all of
     them without a DP run *)
  let trees =
    List.concat_map
      (fun (c : Pipeline.indexed) ->
        List.map (fun u -> u.Pipeline.u_t_sem) c.Pipeline.ix_units)
      ixs
  in
  let tarr = Array.of_list trees in
  let nt = Array.length tarr in
  T.reset_ted ();
  let bounded_total = ref 0 and bounded_kept = ref 0 in
  for i = 0 to nt - 1 do
    for j = i + 1 to nt - 1 do
      incr bounded_total;
      match Div.tree_distance_bounded ~cutoff:8 tarr.(i) tarr.(j) with
      | Some _ -> incr bounded_kept
      | None -> ()
    done
  done;
  let bnd = T.ted_snapshot () in
  Printf.printf
    "  bounded sweep (cutoff 8): %d pairs, %d within cutoff, %d pruned \
     without DP\n"
    !bounded_total !bounded_kept (T.ted_pruned bnd);
  Printf.printf "  %s\n" (T.ted_to_string bnd);
  record "ted-core"
    (J.Obj
       ([
          ("models", J.Int n);
          ("matrix_zs_s", J.Float t_zs);
          ("matrix_flat_s", J.Float t_flat);
          ("matrix_speedup", J.Float matrix_speedup);
          ("pair_zs_ns", J.Float (pair_zs_s *. 1e9));
          ("pair_flat_ns", J.Float (pair_flat_s *. 1e9));
          ("pair_speedup", J.Float pair_speedup);
          ("identical", J.Bool (matrix_identical && pair_identical));
          ("bounded_pairs", J.Int !bounded_total);
          ("bounded_within_cutoff", J.Int !bounded_kept);
          ("bounded_pruned_without_dp", J.Int (T.ted_pruned bnd));
        ]
       @
       let counters prefix (t : T.ted) =
         [
           (prefix ^ "equal_prunes", J.Int t.T.equal_prunes);
           (prefix ^ "size_prunes", J.Int t.T.size_prunes);
           (prefix ^ "hist_prunes", J.Int t.T.hist_prunes);
           (prefix ^ "cutoff_abandons", J.Int t.T.cutoff_abandons);
           (prefix ^ "dp_runs", J.Int t.T.dp_runs);
           (prefix ^ "flat_compiles", J.Int t.T.flat_compiles);
           (prefix ^ "scratch_grows", J.Int t.T.scratch_grows);
           (prefix ^ "strategy_left", J.Int t.T.strategy_left);
           (prefix ^ "strategy_right", J.Int t.T.strategy_right);
         ]
       in
       counters "matrix_" mtx @ counters "bounded_" bnd));
  if not (matrix_identical && pair_identical) then begin
    Printf.eprintf "[bench] ted-core: flat/zs mismatch\n%!";
    exit 1
  end

let kernels () =
  section "Kernel timings (Bechamel)";
  let open Bechamel in
  let ixs = Lazy.force tealeaf in
  let serial = find_model ixs "serial" in
  let sycl = find_model ixs "sycl-usm" in
  let u1 = List.hd serial.ix_units and u2 = List.hd sycl.ix_units in
  let src = List.assoc "tea_serial.cpp" ((List.hd (Sv_corpus.Tealeaf.all ())).files) in
  let tests =
    [
      Test.make ~name:"ted/t_sem(serial,sycl)" (Staged.stage (fun () ->
          Sv_metrics.Divergence.tree_distance u1.Pipeline.u_t_sem u2.Pipeline.u_t_sem));
      Test.make ~name:"diff/source(serial,sycl)" (Staged.stage (fun () ->
          Sv_metrics.Divergence.source_distance u1.Pipeline.u_lines u2.Pipeline.u_lines));
      Test.make ~name:"lex+parse/tealeaf-serial" (Staged.stage (fun () ->
          Sv_lang_c.Parser.parse ~file:"tea.cpp" src));
      Test.make ~name:"lower/tealeaf-serial" (Staged.stage (fun () ->
          Sv_lang_c.Lower.lower ~file:"tea.cpp"
            [ Sv_lang_c.Parser.parse ~file:"tea.cpp" src ]));
    ]
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
    Benchmark.all cfg instances test
  in
  List.iter
    (fun test ->
      let results = benchmark test in
      Hashtbl.iter
        (fun name raw ->
          let stats =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
              Toolkit.Instance.monotonic_clock raw
          in
          match Analyze.OLS.estimates stats with
          | Some [ est ] -> Printf.printf "  %-36s %12.0f ns/run\n" name est
          | _ -> Printf.printf "  %-36s (no estimate)\n" name)
        results)
    tests;
  (* wall-clock engine comparison rides along with the kernel timings *)
  ted_engine ()

(* ------------------------------------------------------------------ *)
(* ablations (design choices called out in DESIGN.md / the paper)      *)
(* ------------------------------------------------------------------ *)

(* §III-C: the match function trades exactness for speed. How tight is
   the matched upper bound, and how much faster is it? *)
let ablation_match () =
  section "Ablation: whole-tree TED vs matched decomposition (the paper's `match`)";
  let ixs = Lazy.force tealeaf in
  let serial = find_model ixs "serial" in
  let su = (List.hd serial.ix_units).Pipeline.u_t_sem in
  Printf.printf "%-18s %8s %8s %8s %9s %9s\n" "model" "exact" "matched" "ratio"
    "t_exact" "t_match";
  List.iter
    (fun (c : Pipeline.indexed) ->
      if c.ix_model <> "serial" then begin
        let t = (List.hd c.ix_units).Pipeline.u_t_sem in
        let time f =
          let t0 = Sys.time () in
          let v = f () in
          (v, Sys.time () -. t0)
        in
        let exact, te = time (fun () -> Sv_metrics.Divergence.tree_distance su t) in
        let matched, tm =
          time (fun () -> Sv_metrics.Divergence.tree_distance_matched su t)
        in
        Printf.printf "%-18s %8d %8d %8.3f %8.2fs %8.2fs\n" c.ix_model_name exact
          matched
          (float_of_int matched /. float_of_int (max 1 exact))
          te tm
      end)
    ixs

(* §III-B: unit costs vs weighted operations ("adding new code may have a
   different productivity impact than removing existing code"). *)
let ablation_weights () =
  section "Ablation: unit-cost vs insertion-weighted TED";
  let ixs = Lazy.force babelstream in
  let serial = find_model ixs "serial" in
  let su = (List.hd serial.ix_units).Pipeline.u_t_sem in
  let weighted =
    {
      Sv_tree.Ted.delete = (fun _ -> 1);
      insert = (fun _ -> 2);  (* writing new code costs double *)
      relabel =
        (fun a b -> if Sv_tree.Label.equal a b then 0 else 2);
    }
  in
  Printf.printf "%-18s %10s %10s\n" "model" "unit" "ins-weighted";
  List.iter
    (fun (c : Pipeline.indexed) ->
      if c.ix_model <> "serial" then begin
        let t = (List.hd c.ix_units).Pipeline.u_t_sem in
        let unit_d = Sv_metrics.Divergence.tree_distance su t in
        let w =
          Sv_tree.Ted.distance ~costs:weighted ~eq:Sv_tree.Label.equal su t
        in
        Printf.printf "%-18s %10d %10d\n" c.ix_model_name unit_d w
      end)
    ixs

(* Fig. 4 uses complete linkage; how sensitive is the clustering? *)
let ablation_linkage () =
  section "Ablation: dendrogram linkage (complete vs average vs single)";
  let ixs = Lazy.force babelstream in
  List.iter
    (fun (name, linkage) ->
      Printf.printf "\n--- %s linkage, T_sem ---\n" name;
      let m, d = Tbmd.dendrogram ~linkage Tbmd.TSem ixs in
      print_string (Report.dendrogram ~labels:m.Sv_cluster.Cluster.labels d))
    [
      ("complete", Sv_cluster.Cluster.Complete);
      ("average", Sv_cluster.Cluster.Average);
      ("single", Sv_cluster.Cluster.Single);
    ]

(* §III-A's secondary metrics over the corpus *)
let structure () =
  section "Secondary metrics: module coupling and tree complexity (§III-A)";
  let ixs = Lazy.force tealeaf in
  List.iter
    (fun (c : Pipeline.indexed) ->
      let u = List.hd c.ix_units in
      let coupling =
        Sv_metrics.Structure.coupling_of_deps ~root:u.Pipeline.u_file
          [ (u.Pipeline.u_file, u.Pipeline.u_deps) ]
      in
      let cx = Sv_metrics.Structure.complexity u.Pipeline.u_t_sem in
      Printf.printf "  %-18s deps=%d coupling=%.2f  T_sem %s\n" c.ix_model_name
        coupling.Sv_metrics.Structure.edges
        coupling.Sv_metrics.Structure.coupling_ratio
        (Format.asprintf "%a" Sv_metrics.Structure.pp_complexity cx))
    ixs

(* RAJA: mentioned in the paper's introduction next to Kokkos but outside
   its Table II evaluation — included here as an extension model. *)
let extension_raja () =
  section "Extension: the RAJA model (beyond the paper's Table II set)";
  let cbs =
    List.filter_map
      (fun m -> Sv_corpus.Babelstream.codebase ~model:m)
      Sv_corpus.Emit.extended_ids
  in
  let ixs = List.map Pipeline.index cbs in
  let serial = find_model ixs "serial" in
  Printf.printf "divergence from serial (BabelStream):\n";
  List.iter
    (fun (c : Pipeline.indexed) ->
      if c.ix_model <> "serial" then
        Printf.printf "  %-18s T_src %.3f  T_sem %.3f  T_sem+i %.3f\n" c.ix_model_name
          (Tbmd.divergence Tbmd.TSrc serial c)
          (Tbmd.divergence Tbmd.TSem serial c)
          (Tbmd.divergence Tbmd.TSemI serial c))
    ixs;
  Printf.printf "\nclustering with RAJA included (T_sem):\n";
  let m, d = Tbmd.dendrogram Tbmd.TSem ixs in
  print_string (Report.dendrogram ~labels:m.Sv_cluster.Cluster.labels d)

(* The PR 7 tentpole: the resident `sv serve` daemon against the
   one-shot path, on the canonical BabelStream serial->omp compare.

   Cold baseline: the real CLI when SV_BIN is set (the bench-smoke rule
   sets it), a forked fresh-process evaluation otherwise — either way a
   process that must index both codebases from scratch. Warm: repeated
   requests against a resident daemon that answers from its decoded LRU.
   Then sustained throughput at 1/4/16 pipelined clients. Every daemon
   reply is compared byte-for-byte against the one-shot output; any
   mismatch exits nonzero (the @bench-smoke contract). *)
let serve_bench () =
  let module Engine = Sv_serve.Engine in
  let module Server = Sv_serve.Server in
  let module Client = Sv_serve.Client in
  let module P = Sv_serve.Protocol in
  section "Service layer: resident daemon vs one-shot (BabelStream serial->omp)";
  let req = P.Compare { app = "babelstream"; base = "serial"; target = "omp" } in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  (* one cold evaluation in a fresh process: (output, seconds) *)
  let cold_cli bin () =
    let cmd =
      String.concat " "
        (List.map Filename.quote
           [ bin; "compare"; "--app"; "babelstream"; "-b"; "serial"; "-t"; "omp" ])
    in
    let (out : string), dt =
      wall (fun () ->
          let ic = Unix.open_process_in cmd in
          let buf = Buffer.create 4096 in
          (try
             while true do
               Buffer.add_channel buf ic 4096
             done
           with End_of_file -> ());
          match Unix.close_process_in ic with
          | Unix.WEXITED 0 -> Buffer.contents buf
          | _ -> failwith ("command failed: " ^ cmd))
    in
    (out, dt)
  in
  let cold_fork () =
    let r, w = Unix.pipe () in
    flush stdout;
    flush stderr;
    let pid = Unix.fork () in
    if pid = 0 then begin
      Unix.close r;
      let (out : string), dt =
        wall (fun () ->
            let e =
              Engine.create
                { (Engine.default_config ()) with Engine.persist_every = 0 }
            in
            match Engine.handle e req with
            | P.Output { output; _ } -> output
            | _ -> "")
      in
      let oc = Unix.out_channel_of_descr w in
      output_value oc (out, dt);
      flush oc;
      Unix._exit 0
    end;
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let ((out, dt) : string * float) = input_value ic in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    (out, dt)
  in
  let cold_once, cold_source =
    match Sys.getenv_opt "SV_BIN" with
    | Some bin when bin <> "" -> (cold_cli bin, "cli")
    | _ -> (cold_fork, "fork")
  in
  let cold_runs = List.init 3 (fun _ -> cold_once ()) in
  let expect = fst (List.hd cold_runs) in
  let t_cold =
    List.fold_left (fun acc (_, dt) -> Float.min acc dt) infinity cold_runs
  in
  let mismatch = ref false in
  let check out =
    if out <> expect then begin
      mismatch := true;
      Printf.eprintf "[bench] serve: daemon output differs from one-shot\n%!"
    end
  in
  List.iter (fun (out, _) -> check out) cold_runs;
  (* resident daemon on a private socket *)
  let socket = Filename.temp_file "sv_bench_serve" ".sock" in
  Sys.remove socket;
  flush stdout;
  flush stderr;
  let pid = Unix.fork () in
  if pid = 0 then begin
    (try
       Sv_perf.Telemetry.reset_serve ();
       Server.serve ~socket
         (Engine.create
            {
              (Engine.default_config ()) with
              Engine.high_water = 128;
              persist_every = 0;
            })
     with _ -> ());
    Unix._exit 0
  end;
  let connect () =
    let rec go n =
      match Client.connect ~socket ~timeout_s:120. () with
      | Ok c -> c
      | Error e ->
          if n = 0 then failwith ("daemon did not come up: " ^ e)
          else begin
            Unix.sleepf 0.05;
            go (n - 1)
          end
    in
    go 200
  in
  let c0 = connect () in
  let daemon_output c =
    match Client.call c req with
    | Ok (P.Output { output; _ }) -> output
    | Ok _ -> failwith "serve: unexpected reply class"
    | Error e -> failwith ("serve: " ^ e)
  in
  let out_cold, t_daemon_cold = wall (fun () -> daemon_output c0) in
  check out_cold;
  let warm_runs = 20 in
  let warm_times =
    List.init warm_runs (fun _ ->
        let out, dt = wall (fun () -> daemon_output c0) in
        check out;
        dt)
  in
  let t_warm_mean =
    List.fold_left ( +. ) 0.0 warm_times /. float_of_int warm_runs
  in
  let t_warm_min = List.fold_left Float.min infinity warm_times in
  let warm_speedup = t_cold /. Float.max 1e-9 t_warm_mean in
  (* sustained throughput: [total] warm compares pipelined over
     [clients] connections (the daemon services one request per loop
     iteration, so this measures service rate under interleaving, not
     parallel evaluation) *)
  let throughput clients =
    let total = 64 in
    let quota = total / clients in
    let conns = Array.init clients (fun _ -> connect ()) in
    let (), dt =
      wall (fun () ->
          Array.iter
            (fun c ->
              for _ = 1 to quota do
                match Client.send c req with
                | Ok () -> ()
                | Error e -> failwith ("serve: " ^ e)
              done)
            conns;
          Array.iter
            (fun c ->
              for _ = 1 to quota do
                match Client.recv c with
                | Ok (_, P.Output { output; _ }) -> check output
                | Ok (_, P.Overloaded _) -> failwith "serve: shed during bench"
                | Ok _ -> failwith "serve: unexpected reply class"
                | Error e -> failwith ("serve: " ^ e)
              done)
            conns)
    in
    Array.iter Client.close conns;
    float_of_int (quota * clients) /. Float.max 1e-9 dt
  in
  let rps_1 = throughput 1 in
  let rps_4 = throughput 4 in
  let rps_16 = throughput 16 in
  (match Client.call c0 P.Shutdown with
  | Ok P.Shutdown_ack -> ()
  | _ -> failwith "serve: shutdown failed");
  Client.close c0;
  ignore (Unix.waitpid [] pid);
  Printf.printf "  %-30s %9.3fs  (best of 3, %s)\n" "cold one-shot compare"
    t_cold cold_source;
  Printf.printf "  %-30s %9.3fs\n" "daemon first request (cold)" t_daemon_cold;
  Printf.printf "  %-30s %9.5fs  (min %.5fs over %d, %.1fx vs one-shot)\n"
    "daemon warm compare" t_warm_mean t_warm_min warm_runs warm_speedup;
  Printf.printf "  %-30s %9.1f rps\n" "throughput, 1 client" rps_1;
  Printf.printf "  %-30s %9.1f rps\n" "throughput, 4 clients" rps_4;
  Printf.printf "  %-30s %9.1f rps\n" "throughput, 16 clients" rps_16;
  Printf.printf "  daemon byte-identical to one-shot: %s\n"
    (if !mismatch then "MISMATCH" else "OK");
  record "serve"
    (J.Obj
       [
         ("pair", J.String "babelstream serial->omp");
         ("cold_oneshot_s", J.Float t_cold);
         ("cold_oneshot_source", J.String cold_source);
         ("daemon_cold_s", J.Float t_daemon_cold);
         ("daemon_warm_mean_s", J.Float t_warm_mean);
         ("daemon_warm_min_s", J.Float t_warm_min);
         ("warm_speedup_vs_cold_oneshot", J.Float warm_speedup);
         ("rps_1_client", J.Float rps_1);
         ("rps_4_clients", J.Float rps_4);
         ("rps_16_clients", J.Float rps_16);
         ("identical", J.Bool (not !mismatch));
       ]);
  if !mismatch then begin
    Printf.eprintf "[bench] serve: daemon/one-shot mismatch\n%!";
    exit 1
  end

(* The PR 8 tentpole: a statistical divergence study over a generated
   corpus. A seeded synthetic corpus (mutants of BabelStream ports plus
   grown kernel chains, every variant interpreter-verified at birth) is
   pushed through the whole engine stack — index (serial vs pool), T_sem
   matrix (serial vs pool vs cold/warm persistent TED cache) — with the
   usual byte-identity contract (mismatch exits nonzero), and the
   resulting distance distribution is characterised: moments and a
   histogram of all pairwise divergences, triangle-inequality tightness
   over sampled triples (normalised divergence is not guaranteed
   metric — violations are counted, not assumed away), the paper's
   clustering recipe over the variant matrix, and the stability of the
   distribution across generator seeds. `--smoke` runs ~60 variants;
   the full study defaults to 1000 (SV_GEN_VARIANTS overrides). *)
let corpus_study () =
  let module Gen = Sv_gen.Gen in
  let module Prng = Sv_util.Prng in
  section "Corpus study: generated variants through index -> TED matrix -> cluster";
  let smoke = !smoke_flag in
  let count =
    if smoke then 60
    else
      match Sys.getenv_opt "SV_GEN_VARIANTS" with
      | Some s -> ( match int_of_string_opt s with Some n when n >= 10 -> n | _ -> 1000)
      | None -> 1000
  in
  (* Smoke exercises both generator modes (mutants of full BabelStream
     ports have ~3x the tree size of grown kernels, so they are the
     expensive path). The full-scale study is grow-mode over the
     lean-scaffold models: the point at 1000+ programs is the geometry
     of the distance distribution — Sporring & Larsen's random-program
     shape — and grown kernel chains keep the n^2 exact-TED bill
     affordable on one core while mutation stays covered by smoke and
     the property suites. *)
  let spec =
    if smoke then { Gen.seed = 8; count; mode = Gen.Mixed; base = "babelstream" }
    else { Gen.seed = 8; count; mode = Gen.Grow; base = "serial,omp,stdpar,tbb,kokkos" }
  in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  (* generation (every variant re-verified through the interpreter) *)
  let variants, t_gen = wall (fun () -> Gen.generate spec) in
  let grown = List.length (List.filter (fun v -> v.Gen.v_kind = `Grown) variants) in
  Printf.printf "  %s: %d variants (%d grown, %d mutated) generated in %.1fs\n"
    (Gen.spec_string spec) count grown (count - grown) t_gen;
  List.iter
    (fun (op, n) -> Printf.printf "    %-18s %d\n" op n)
    (Gen.op_counts variants);
  let cbs = List.map (fun v -> v.Gen.v_cb) variants in
  (* index: serial vs pool, byte-identical artifacts *)
  let artifact_bytes ixs =
    String.concat ""
      (List.map (fun ix -> Sv_db.Codebase_db.save (Pipeline.to_db ix)) ixs)
  in
  let serial_ixs, t_ix_serial = wall (fun () -> Sv_core.Index_engine.index_many ~jobs:1 cbs) in
  let jobs = max 2 (Sv_sched.Sched.default_jobs ()) in
  let par_ixs, t_ix_par = wall (fun () -> Sv_core.Index_engine.index_many ~jobs cbs) in
  let index_identical = artifact_bytes par_ixs = artifact_bytes serial_ixs in
  Printf.printf "  %-30s %9.1fs\n" "index, serial" t_ix_serial;
  Printf.printf "  %-30s %9.1fs  (%d workers, %.2fx)\n" "index, parallel" t_ix_par
    jobs
    (t_ix_serial /. Float.max 1e-9 t_ix_par);
  Printf.printf "  index artifacts byte-identical: %s\n"
    (if index_identical then "OK" else "MISMATCH");
  let ixs = serial_ixs in
  (* T_sem matrix: serial vs pool vs cold/warm persistent TED cache *)
  let render (m : Cluster.matrix) =
    String.concat "\n"
      (Array.to_list
         (Array.map
            (fun row ->
              String.concat " "
                (Array.to_list (Array.map (Printf.sprintf "%.17g") row)))
            m.Cluster.data))
  in
  let run_matrix ~jobs ~cache () =
    Tbmd.clear_memo ();
    Tbmd.set_jobs jobs;
    Tbmd.set_ted_cache cache;
    Fun.protect
      ~finally:(fun () ->
        Tbmd.set_jobs 1;
        Tbmd.set_ted_cache None)
      (fun () -> Tbmd.matrix Tbmd.TSem ixs)
  in
  let serial_m, t_m_serial = wall (run_matrix ~jobs:1 ~cache:None) in
  (* the parallel run doubles as the cold-cache run: workers ship their
     TED entries back, so it both checks pool identity and leaves a warm
     persistent cache for the third configuration *)
  let cache = Sv_db.Codebase_db.Ted_cache.create () in
  let par_m, t_m_par = wall (run_matrix ~jobs ~cache:(Some cache)) in
  let warm_m, t_m_warm = wall (run_matrix ~jobs:1 ~cache:(Some cache)) in
  let sr = render serial_m in
  let matrix_identical = render par_m = sr && render warm_m = sr in
  Printf.printf "  %-30s %9.1fs  (%d^2 divergences)\n" "matrix, serial" t_m_serial
    count;
  Printf.printf "  %-30s %9.1fs  (%d workers, cold TED cache)\n"
    "matrix, parallel" t_m_par jobs;
  Printf.printf "  %-30s %9.1fs  (%s)\n" "matrix, warm TED cache" t_m_warm
    (Sv_db.Codebase_db.Ted_cache.stats cache);
  Printf.printf "  matrices byte-identical: %s\n"
    (if matrix_identical then "OK" else "MISMATCH");
  (* distance distribution: all off-diagonal divergences *)
  let d = serial_m.Cluster.data in
  let n = Array.length d in
  let values = ref [] and sum = ref 0.0 and sq = ref 0.0 and nv = ref 0 in
  let dmin = ref infinity and dmax = ref neg_infinity in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let v = d.(i).(j) in
        values := v :: !values;
        sum := !sum +. v;
        sq := !sq +. (v *. v);
        incr nv;
        if v < !dmin then dmin := v;
        if v > !dmax then dmax := v
      end
    done
  done;
  let mean = !sum /. float_of_int !nv in
  let variance = (!sq /. float_of_int !nv) -. (mean *. mean) in
  let bins = 16 in
  let hist = Array.make bins 0 in
  List.iter
    (fun v ->
      let b = int_of_float (v *. float_of_int bins) in
      hist.(min (bins - 1) (max 0 b)) <- hist.(min (bins - 1) (max 0 b)) + 1)
    !values;
  Printf.printf
    "  distances: n=%d mean=%.4f var=%.5f min=%.4f max=%.4f\n" !nv mean variance
    !dmin !dmax;
  Printf.printf "  histogram [0,1) x%d: %s\n" bins
    (String.concat " " (Array.to_list (Array.map string_of_int hist)));
  (* triangle-inequality tightness over sampled triples: normalised
     divergence need not be a metric, so violations are measured *)
  let rng = Prng.create (spec.Gen.seed lxor 0x7ea) in
  let triples = min 20000 (n * (n - 1) * (n - 2)) in
  let violations = ref 0 and worst = ref 0.0 and tight_sum = ref 0.0 in
  for _ = 1 to triples do
    let i = Prng.int rng n in
    let j = (i + 1 + Prng.int rng (n - 1)) mod n in
    let k = ref (Prng.int rng n) in
    while !k = i || !k = j do
      k := Prng.int rng n
    done;
    let lhs = d.(i).(!k) and rhs = d.(i).(j) +. d.(j).(!k) in
    let ratio = lhs /. Float.max 1e-12 rhs in
    tight_sum := !tight_sum +. Float.min 1.0 ratio;
    if lhs > rhs +. 1e-12 then begin
      incr violations;
      if ratio > !worst then worst := ratio
    end
  done;
  Printf.printf
    "  triangle inequality: %d/%d sampled triples violate (worst ratio %.3f, \
     mean tightness %.3f)\n"
    !violations triples !worst
    (!tight_sum /. float_of_int triples);
  (* the paper's clustering recipe over the variant matrix *)
  let (dm, dendro), t_cluster = wall (fun () -> Tbmd.dendrogram Tbmd.TSem ixs) in
  let heights = Cluster.merge_heights dendro in
  let hmax = List.fold_left Float.max 0.0 heights in
  let cut = hmax /. 2.0 in
  let clusters_at_cut = 1 + List.length (List.filter (fun h -> h > cut) heights) in
  Printf.printf
    "  clustering: %d leaves in %.1fs, max merge height %.3f, %d clusters at \
     height %.3f\n"
    (Array.length dm.Cluster.labels)
    t_cluster hmax clusters_at_cut cut;
  (* stability: re-run a smaller study under neighbouring seeds and
     compare distribution moments and dendrogram scale *)
  let stab_count = max 10 (count / 10) in
  let stability =
    List.map
      (fun seed ->
        let sspec = { spec with Gen.seed; count = stab_count } in
        let sixs =
          Sv_core.Index_engine.index_many ~jobs
            (List.map (fun v -> v.Gen.v_cb) (Gen.generate sspec))
        in
        Tbmd.clear_memo ();
        let sm, sd = Tbmd.dendrogram Tbmd.TSem sixs in
        let data = sm.Cluster.data in
        let sn = Array.length data in
        let s = ref 0.0 and c = ref 0 in
        for i = 0 to sn - 1 do
          for j = 0 to sn - 1 do
            if i <> j then begin
              s := !s +. data.(i).(j);
              incr c
            end
          done
        done;
        let smean = !s /. float_of_int (max 1 !c) in
        let shmax = List.fold_left Float.max 0.0 (Cluster.merge_heights sd) in
        Printf.printf "  seed %-4d (%d variants): mean distance %.4f, dendrogram \
                       height %.3f\n"
          seed stab_count smean shmax;
        (seed, smean, shmax))
      [ spec.Gen.seed; spec.Gen.seed + 1; spec.Gen.seed + 2 ]
  in
  let means = List.map (fun (_, m, _) -> m) stability in
  let mmin = List.fold_left Float.min infinity means in
  let mmax = List.fold_left Float.max neg_infinity means in
  let mavg = List.fold_left ( +. ) 0.0 means /. float_of_int (List.length means) in
  let spread = (mmax -. mmin) /. Float.max 1e-9 mavg in
  Printf.printf "  stability: mean-distance spread %.1f%% across %d seeds\n"
    (100.0 *. spread) (List.length stability);
  record "corpus-study"
    (J.Obj
       [
         ("spec", J.String (Gen.spec_string spec));
         ("variants", J.Int count);
         ("grown", J.Int grown);
         ("mutated", J.Int (count - grown));
         ("gen_s", J.Float t_gen);
         ("index_serial_s", J.Float t_ix_serial);
         ("index_parallel_s", J.Float t_ix_par);
         ("jobs", J.Int jobs);
         ("matrix_serial_s", J.Float t_m_serial);
         ("matrix_parallel_cold_cache_s", J.Float t_m_par);
         ("matrix_warm_cache_s", J.Float t_m_warm);
         ("cluster_s", J.Float t_cluster);
         ("pairs", J.Int !nv);
         ("distance_mean", J.Float mean);
         ("distance_variance", J.Float variance);
         ("distance_min", J.Float !dmin);
         ("distance_max", J.Float !dmax);
         ( "histogram",
           J.List (Array.to_list (Array.map (fun c -> J.Int c) hist)) );
         ("triangle_triples", J.Int triples);
         ("triangle_violations", J.Int !violations);
         ("triangle_worst_ratio", J.Float !worst);
         ("triangle_mean_tightness", J.Float (!tight_sum /. float_of_int triples));
         ("dendrogram_height", J.Float hmax);
         ("clusters_at_half_height", J.Int clusters_at_cut);
         ( "stability",
           J.List
             (List.map
                (fun (seed, m, h) ->
                  J.Obj
                    [
                      ("seed", J.Int seed);
                      ("mean_distance", J.Float m);
                      ("dendrogram_height", J.Float h);
                    ])
                stability) );
         ("stability_mean_spread", J.Float spread);
         ("index_identical", J.Bool index_identical);
         ("matrix_identical", J.Bool matrix_identical);
       ]);
  if not (index_identical && matrix_identical) then begin
    Printf.eprintf "[bench] corpus-study: serial/parallel/cached mismatch\n%!";
    exit 1
  end

(* Metric-space indexing over a generated corpus. For each corpus size
   in the grid, the full T_sem dendrogram is computed exhaustively (its
   time and DP count land in the JSON report). A VP-tree k-NN sweep then
   answers every variant's 5-nearest query through the index and checks
   the ranking against brute force, counting bounded evaluations per
   query. Sampled triples check the integer-TED triangle inequality (the
   metric the index relies on — violations exit nonzero), and the
   index-grain heuristic row times serial vs pool indexing of the tiny
   generated codebases, recording which grain [plan_grain] picked (the
   PR 8 parallel-indexing regression: IPC loses below the source-size
   floor, so the pool path must now match serial within noise).
   `--smoke` runs n in {12, 24}; the full grid is {50, 100, 200}
   (SV_METRIC_GRID overrides, comma-separated). *)
let metric_study () =
  let module Gen = Sv_gen.Gen in
  let module Prng = Sv_util.Prng in
  let module T = Sv_perf.Telemetry in
  section "Metric study: exhaustive matrices and VP-tree k-NN";
  let grid =
    match Sys.getenv_opt "SV_METRIC_GRID" with
    | Some s ->
        List.filter_map int_of_string_opt
          (String.split_on_char ',' (String.trim s))
    | None -> if !smoke_flag then [ 12; 24 ] else [ 50; 100; 200 ]
  in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let mismatch = ref false in
  let rows =
    List.map
      (fun n ->
        let spec =
          {
            Gen.seed = 8;
            count = n;
            mode = Gen.Grow;
            base = "serial,omp,stdpar,tbb,kokkos";
          }
        in
        let cbs = List.map (fun v -> v.Gen.v_cb) (Gen.generate spec) in
        (* satellite row: the grain heuristic on these tiny codebases —
           the pool must no longer lose to serial now that [plan_grain]
           keeps sub-floor corpora in-process *)
        let grain = Sv_core.Index_engine.plan_grain ~jobs:2 cbs in
        let _, t_ix_serial =
          wall (fun () -> Sv_core.Index_engine.index_many ~jobs:1 cbs)
        in
        let ixs, t_ix_j2 =
          wall (fun () -> Sv_core.Index_engine.index_many ~jobs:2 cbs)
        in
        (* exhaustive dendrogram *)
        Tbmd.clear_memo ();
        T.reset_ted ();
        let _, t_exhaustive = wall (fun () -> Tbmd.dendrogram Tbmd.TSem ixs) in
        let dp_exhaustive = (T.ted_snapshot ()).T.dp_runs in
        (* VP-tree k-NN: every variant's 5-nearest, checked against brute
           force over the (memo-warm) distances *)
        let arr = Array.of_list ixs in
        let vp = Tbmd.vp_index Tbmd.TSem ixs in
        let k = 5 in
        let evals_total = ref 0 and knn_ok = ref true in
        Array.iter
          (fun q ->
            let hits, evals = Tbmd.vp_nearest vp ~k q in
            evals_total := !evals_total + evals;
            let brute =
              List.sort compare
                (Array.to_list
                   (Array.mapi
                      (fun i c -> (fst (Tbmd.raw_divergence Tbmd.TSem c q), i))
                      arr))
            in
            let brute_k = List.filteri (fun i _ -> i < k) brute in
            let vp_k =
              List.map
                (fun (c, d, _) ->
                  ( d,
                    let rec find i = if arr.(i) == c then i else find (i + 1) in
                    find 0 ))
                hits
            in
            if vp_k <> brute_k then knn_ok := false)
          arr;
        if not !knn_ok then begin
          mismatch := true;
          Printf.eprintf
            "[bench] metric-study: VP-tree k-NN differs from brute force at \
             n=%d\n%!"
            n
        end;
        let tel = T.ted_snapshot () in
        let avg_evals = float_of_int !evals_total /. float_of_int n in
        (* the integer TED the index relies on must be a true metric *)
        let rng = Prng.create (spec.Gen.seed lxor 0x913) in
        let triples = 2000 in
        let tri_violations = ref 0 in
        let raw i j = fst (Tbmd.raw_divergence Tbmd.TSem arr.(i) arr.(j)) in
        for _ = 1 to triples do
          let i = Prng.int rng n in
          let j = (i + 1 + Prng.int rng (n - 1)) mod n in
          let l = ref (Prng.int rng n) in
          while !l = i || !l = j do
            l := Prng.int rng n
          done;
          if raw i !l > raw i j + raw j !l then incr tri_violations
        done;
        if !tri_violations > 0 then begin
          mismatch := true;
          Printf.eprintf
            "[bench] metric-study: %d integer-TED triangle violations at \
             n=%d\n%!"
            !tri_violations n
        end;
        Printf.printf "  n=%-4d exhaustive %6.1fs (%d DP)\n" n t_exhaustive
          dp_exhaustive;
        Printf.printf
          "         k-NN k=%d: %.1f evals/query (brute %d), ranking %s; \
           triangle %d/%d violations\n"
          k avg_evals n
          (if !knn_ok then "identical" else "MISMATCH")
          !tri_violations triples;
        Printf.printf
          "         index: serial %.2fs, jobs=2 %.2fs (grain %s)\n" t_ix_serial
          t_ix_j2
          (match grain with
          | `Serial -> "serial"
          | `Codebase -> "codebase"
          | `Unit -> "unit");
        ( n,
          J.Obj
            [
              ("n", J.Int n);
              ("exhaustive_s", J.Float t_exhaustive);
              ("exhaustive_dp_runs", J.Int dp_exhaustive);
              ("pairs", J.Int (n * (n - 1) / 2));
              ("size_prunes", J.Int tel.T.size_prunes);
              ("hist_prunes", J.Int tel.T.hist_prunes);
              ("cutoff_abandons", J.Int tel.T.cutoff_abandons);
              ("knn_k", J.Int k);
              ("knn_avg_evals_per_query", J.Float avg_evals);
              ("knn_brute_evals_per_query", J.Int n);
              ("knn_identical", J.Bool !knn_ok);
              ("vp_build_evals", J.Int (Tbmd.vp_build_evals vp));
              ("triangle_triples", J.Int triples);
              ("triangle_violations", J.Int !tri_violations);
              ("index_serial_s", J.Float t_ix_serial);
              ("index_jobs2_s", J.Float t_ix_j2);
              ( "index_grain",
                J.String
                  (match grain with
                  | `Serial -> "serial"
                  | `Codebase -> "codebase"
                  | `Unit -> "unit") );
            ] ))
      grid
  in
  record "metric-study"
    (J.Obj
       [
         ("grid", J.List (List.map (fun (n, _) -> J.Int n) rows));
         ("results", J.List (List.map snd rows));
         ("identical", J.Bool (not !mismatch));
       ]);
  if !mismatch then begin
    Printf.eprintf "[bench] metric-study: identity contract violated\n%!";
    exit 1
  end

(* The PR 10 tentpole: the phase-2 metric index — persistent,
   incremental, budgeted-approximate. Over a grown corpus (smoke: 60
   variants; full: 1000, SV_GEN_VARIANTS overrides):

   - cold vs warm `nearest`: the VP-tree is built once against an empty
     metric cache, the cache round-trips through bytes (a daemon
     restart), and the reloaded tree must answer every sampled query
     byte-identically with zero build evaluations — either violation
     exits nonzero.
   - incremental insert: the final few variants arrive via [vp_insert]
     instead of a rebuild; queries must still equal the fresh build.
   - recall@k vs budget: every sampled query runs under a grid of
     evaluation budgets (and an ε grid); recall against the exact
     answer is recorded per point, and any run whose ledger still
     claims [guaranteed_exact] must in fact equal the exact answer —
     the honesty contract, violation exits nonzero.
   - per-bound prune attribution: the exact query sweep runs under
     reset telemetry, so the equal/size/histogram/abandon/DP split
     shows which cascade stage paid for the pruning. *)
let metric_phase2 () =
  let module Gen = Sv_gen.Gen in
  let module T = Sv_perf.Telemetry in
  let module Vp = Sv_metric.Vptree in
  let module Mc = Sv_db.Metric_cache in
  section "Metric phase 2: persistent, incremental, budgeted VP-tree";
  let count =
    if !smoke_flag then 60
    else
      match Sys.getenv_opt "SV_GEN_VARIANTS" with
      | Some s -> ( match int_of_string_opt s with Some n when n >= 10 -> n | _ -> 1000)
      | None -> 1000
  in
  let spec =
    { Gen.seed = 8; count; mode = Gen.Grow; base = "serial,omp,stdpar,tbb,kokkos" }
  in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let variants, t_gen = wall (fun () -> Gen.generate spec) in
  let cbs = List.map (fun v -> v.Gen.v_cb) variants in
  let ixs, t_ix = wall (fun () -> Sv_core.Index_engine.index_many ~jobs:1 cbs) in
  Printf.printf "  %s: %d variants generated in %.1fs, indexed in %.1fs\n"
    (Gen.spec_string spec) count t_gen t_ix;
  let arr = Array.of_list ixs in
  let n = Array.length arr in
  let k = 5 in
  let mismatch = ref false in
  (* query sample: every variant in smoke, a stride sample at full scale *)
  let qn = min n 200 in
  let queries = Array.init qn (fun i -> arr.(i * n / qn)) in
  let hit_key ((c : Pipeline.indexed), d, dv) = (c.Pipeline.ix_model, d, dv) in
  let answers vp =
    Array.map (fun q -> List.map hit_key (fst (Tbmd.vp_nearest vp ~k q))) queries
  in
  (* cold build against an empty metric cache, then a byte round-trip
     (a daemon restart) and a warm reload from the persisted file *)
  let cache = Mc.create () in
  let tmp = Filename.temp_file "sv_bench_metric" ".cache" in
  let vp_cold, vp_warm, warm_cache, t_cold, t_warm =
    Fun.protect
      ~finally:(fun () ->
        Tbmd.set_metric_cache None;
        if Sys.file_exists tmp then Sys.remove tmp)
      (fun () ->
        Tbmd.set_metric_cache (Some cache);
        Tbmd.clear_memo ();
        let vp_cold, t_cold = wall (fun () -> Tbmd.vp_index Tbmd.TSem ixs) in
        Mc.save_file tmp cache;
        let warm_cache = Mc.load_file tmp in
        Tbmd.set_metric_cache (Some warm_cache);
        Tbmd.clear_memo ();
        let vp_warm, t_warm = wall (fun () -> Tbmd.vp_index Tbmd.TSem ixs) in
        (vp_cold, vp_warm, warm_cache, t_cold, t_warm))
  in
  let cold_evals = Tbmd.vp_build_evals vp_cold in
  let warm_evals = Tbmd.vp_build_evals vp_warm in
  let exact = answers vp_cold in
  let warm_identical = answers vp_warm = exact && warm_evals = 0 in
  if not warm_identical then begin
    mismatch := true;
    Printf.eprintf
      "[bench] metric-phase2: warm reload differs (%d build evals)\n%!"
      warm_evals
  end;
  Printf.printf "  %-30s %9.3fs  (%d build evals)\n" "cold VP-tree build" t_cold
    cold_evals;
  Printf.printf "  %-30s %9.3fs  (%d build evals, %s; %s)\n"
    "warm reload (persisted)" t_warm warm_evals
    (if warm_identical then "byte-identical" else "MISMATCH")
    (Mc.stats warm_cache);
  (* incremental insert: hold out the tail, add it one codebase at a
     time — candidate order is preserved, so answers must be identical *)
  let m_ins = min 8 (n / 4) in
  let base = Array.to_list (Array.sub arr 0 (n - m_ins)) in
  let tail = Array.to_list (Array.sub arr (n - m_ins) m_ins) in
  let vp_inc, t_inc =
    wall (fun () -> List.fold_left Tbmd.vp_insert (Tbmd.vp_index Tbmd.TSem base) tail)
  in
  let inc_identical = answers vp_inc = exact in
  if not inc_identical then begin
    mismatch := true;
    Printf.eprintf "[bench] metric-phase2: incremental insert diverged\n%!"
  end;
  Printf.printf "  %-30s %9.3fs  (+%d inserts, %d total evals, %s)\n"
    "incremental insert" t_inc m_ins (Tbmd.vp_build_evals vp_inc)
    (if inc_identical then "identical" else "MISMATCH");
  (* exact k-NN sweep under reset telemetry: who pruned what? *)
  Tbmd.clear_memo ();
  T.reset_ted ();
  let sweep_evals, t_sweep =
    wall (fun () ->
        Array.fold_left (fun acc q -> acc + snd (Tbmd.vp_nearest vp_cold ~k q)) 0 queries)
  in
  let tel = T.ted_snapshot () in
  let avg_evals = float_of_int sweep_evals /. float_of_int qn in
  Printf.printf "  %-30s %9.3fs  (k=%d, %.1f evals/query, brute %d)\n"
    (Printf.sprintf "exact sweep (%d queries)" qn)
    t_sweep k avg_evals n;
  Printf.printf
    "  cascade: equal=%d size=%d hist=%d abandoned=%d dp=%d\n"
    tel.T.equal_prunes tel.T.size_prunes tel.T.hist_prunes
    tel.T.cutoff_abandons tel.T.dp_runs;
  (* bounded-pair attribution: the same cascade under fixed cutoffs, on
     a mutation corpus. Query-driven cutoffs above are usually generous
     (the k-th best distance), so the size bound dominates; tight
     cutoffs on a mutant population, whose pairs are near-identical,
     leave more work to the histogram bound and the DP. *)
  let att_spec = { Gen.seed = 8; count = 60; mode = Gen.Mixed; base = "babelstream" } in
  let att_arr =
    Array.of_list
      (Sv_core.Index_engine.index_many ~jobs:1
         (List.map (fun v -> v.Gen.v_cb) (Gen.generate att_spec)))
  in
  let an = Array.length att_arr in
  let pair_sample =
    let all = ref [] in
    for i = 0 to an - 1 do
      for j = i + 1 to an - 1 do
        all := (i, j) :: !all
      done
    done;
    let pairs = Array.of_list !all in
    let np = Array.length pairs in
    let target = 2000 in
    if np <= target then pairs
    else Array.init target (fun i -> pairs.(i * np / target))
  in
  Printf.printf "  bounded-pair attribution (%s, %d sampled pairs):\n"
    (Gen.spec_string att_spec) (Array.length pair_sample);
  let attribution =
    List.map
      (fun cutoff ->
        Tbmd.clear_memo ();
        T.reset_ted ();
        let within = ref 0 in
        Array.iter
          (fun (i, j) ->
            match
              Tbmd.raw_divergence_bounded Tbmd.TSem ~cutoff att_arr.(i)
                att_arr.(j)
            with
            | Some _ -> incr within
            | None -> ())
          pair_sample;
        let t = T.ted_snapshot () in
        Printf.printf
          "    cutoff %-4d %4d within; equal=%d size=%d hist=%d abandoned=%d \
           dp=%d\n"
          cutoff !within t.T.equal_prunes t.T.size_prunes t.T.hist_prunes
          t.T.cutoff_abandons t.T.dp_runs;
        (cutoff, !within, t))
      [ 2; 8; 32 ]
  in
  (* recall@k vs budget (and ε): the honesty contract is checked on
     every single run — a ledger that claims exactness must be right *)
  let honest = ref true in
  let sweep label runs =
    List.map
      (fun (name, query_once) ->
        let recall_sum = ref 0.0
        and evals_sum = ref 0
        and exact_claims = ref 0 in
        Array.iteri
          (fun qi q ->
            let hits, (ledger : Vp.ledger) = query_once q in
            let got = List.map hit_key hits in
            let want = exact.(qi) in
            let inter = List.filter (fun h -> List.mem h want) got in
            recall_sum :=
              !recall_sum
              +. float_of_int (List.length inter)
                 /. float_of_int (List.length want);
            evals_sum := !evals_sum + ledger.Vp.evals;
            if ledger.Vp.guaranteed_exact then begin
              incr exact_claims;
              if got <> want then begin
                honest := false;
                Printf.eprintf
                  "[bench] metric-phase2: ledger claimed exact but %s hits \
                   differ (%s)\n%!"
                  label name
              end
            end)
          queries;
        let recall = !recall_sum /. float_of_int qn in
        let evals_q = float_of_int !evals_sum /. float_of_int qn in
        let exact_frac = float_of_int !exact_claims /. float_of_int qn in
        Printf.printf
          "    %s %-8s recall@%d %.3f  %7.1f evals/query  %5.1f%% guaranteed \
           exact\n"
          label name k recall evals_q (100.0 *. exact_frac);
        (name, recall, evals_q, exact_frac))
      runs
  in
  Printf.printf "  approximate mode:\n";
  let budgets =
    List.sort_uniq compare
      (List.filter (fun b -> b > 0) [ k; n / 16; n / 8; n / 4; n / 2; n ])
  in
  let budget_curve =
    sweep "budget"
      (List.map
         (fun b ->
           (string_of_int b, fun q -> Tbmd.vp_nearest_budgeted vp_cold ~k ~budget:b q))
         budgets)
  in
  let eps_curve =
    sweep "epsilon"
      (List.map
         (fun e ->
           (Printf.sprintf "%g" e, fun q -> Tbmd.vp_nearest_budgeted vp_cold ~k ~epsilon:e q))
         [ 0.05; 0.25; 1.0 ])
  in
  if not !honest then mismatch := true;
  Printf.printf "  exactness ledger honest on every run: %s\n"
    (if !honest then "OK" else "VIOLATED");
  let curve_json curve =
    J.List
      (List.map
         (fun (name, recall, evals_q, exact_frac) ->
           J.Obj
             [
               ("point", J.String name);
               ("recall", J.Float recall);
               ("evals_per_query", J.Float evals_q);
               ("guaranteed_exact_fraction", J.Float exact_frac);
             ])
         curve)
  in
  record "metric-phase2"
    (J.Obj
       [
         ("spec", J.String (Gen.spec_string spec));
         ("variants", J.Int n);
         ("queries", J.Int qn);
         ("k", J.Int k);
         ("cold_build_s", J.Float t_cold);
         ("cold_build_evals", J.Int cold_evals);
         ("warm_reload_s", J.Float t_warm);
         ("warm_build_evals", J.Int warm_evals);
         ("warm_identical", J.Bool warm_identical);
         ("insert_count", J.Int m_ins);
         ("insert_s", J.Float t_inc);
         ("insert_total_evals", J.Int (Tbmd.vp_build_evals vp_inc));
         ("insert_identical", J.Bool inc_identical);
         ("exact_sweep_s", J.Float t_sweep);
         ("exact_avg_evals_per_query", J.Float avg_evals);
         ("equal_prunes", J.Int tel.T.equal_prunes);
         ("size_prunes", J.Int tel.T.size_prunes);
         ("hist_prunes", J.Int tel.T.hist_prunes);
         ("cutoff_abandons", J.Int tel.T.cutoff_abandons);
         ("dp_runs", J.Int tel.T.dp_runs);
         ("bounded_attribution_spec", J.String (Gen.spec_string att_spec));
         ( "bounded_attribution",
           J.List
             (List.map
                (fun (cutoff, within, (t : T.ted)) ->
                  J.Obj
                    [
                      ("cutoff", J.Int cutoff);
                      ("pairs", J.Int (Array.length pair_sample));
                      ("within", J.Int within);
                      ("equal_prunes", J.Int t.T.equal_prunes);
                      ("size_prunes", J.Int t.T.size_prunes);
                      ("hist_prunes", J.Int t.T.hist_prunes);
                      ("cutoff_abandons", J.Int t.T.cutoff_abandons);
                      ("dp_runs", J.Int t.T.dp_runs);
                    ])
                attribution) );
         ("budget_curve", curve_json budget_curve);
         ("epsilon_curve", curve_json eps_curve);
         ("ledger_honest", J.Bool !honest);
         ("identical", J.Bool (not !mismatch));
       ]);
  if !mismatch then begin
    Printf.eprintf "[bench] metric-phase2: exactness contract violated\n%!";
    exit 1
  end

let experiments =
  [
    ("table1", table1); ("table2", table2); ("table3", table3);
    ("fig4", fig4); ("fig5", fig5); ("fig6", fig6); ("fig7", fig7);
    ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("fig11", fig11);
    ("fig12", fig12); ("fig13", fig13); ("fig14", fig14); ("fig15", fig15);
    ("verify", verify); ("db", db);
    ("ablation-match", ablation_match); ("ablation-weights", ablation_weights);
    ("ablation-linkage", ablation_linkage); ("structure", structure);
    ("extension-raja", extension_raja);
    ("ted-engine", ted_engine);
    ("ted-core", ted_core);
    ("index-engine", index_engine);
    ("serve", serve_bench);
    ("corpus-study", corpus_study);
    ("metric-study", metric_study);
    ("metric-phase2", metric_phase2);
    ("kernels", kernels);
  ]

let () =
  let args =
    List.filter
      (fun a ->
        if a = "--smoke" then begin
          smoke_flag := true;
          false
        end
        else true)
      (List.tl (Array.to_list Sys.argv))
  in
  let requested =
    match args with
    | args when args <> [] && args <> [ "all" ] -> args
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat " " (List.map fst experiments));
          exit 2)
    requested
