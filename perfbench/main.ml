(* The SilverVale benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Builds the workload's inputs from the seed, runs untraced timed passes
   for S seconds, checks every output, and prints one JSON object as the
   last line of stdout: the end-to-end metrics with --trace 0, the
   per-layer metrics (from one more, traced pass and its probes) with
   --trace 1. Exits 1 when any check failed. Spans of the traced run are
   written to .perfbench/trace-<workload>-<seed>.json.

     main.exe --spec

   prints the metric tables BENCHMARK.json carries. *)

(* The serve layer is measured by a probe on the traced corpus-warm run,
   not by a load workload of its own (see README.md). *)
let workloads = [ "miniapp-cold"; "corpus-warm"; "corpus-ingest" ]

(* name, unit, better, bound. The times are rescaled to a reference host
   speed (see Speed). Peak RSS follows the size of each seed's inputs. *)
let end_to_end =
  [ ("wall_s", "s", "lower", 0.25); ("setup_s", "s", "lower", 0.25); ("peak_rss_mb", "MB", "lower", 0.25) ]

let verbs = Serve_probe.verbs
let self_layers =
  [ "index_engine"; "lang_c"; "interp"; "diff"; "tree"; "ted"; "tbmd"; "cluster"; "vptree"; "db";
    "svz"; "msgpack"; "serve"; "unattributed" ]

(* name, unit, better: times, work done, misses and failures are better
   lower; hits, prunes and rates higher *)
let per_layer =
  let lo u n = (n, u, "lower") and hi u n = (n, u, "higher") in
  List.map (lo "s")
    [ "index_engine.index_many_s"; "lang_c.preproc_s"; "lang_c.cst_s"; "lang_c.parse_s";
      "lang_c.sem_tree_s"; "lang_c.lower_s"; "interp.run_s"; "diff.source_matrix_s"; "tree.warm_s";
      "ted.dp_s"; "tbmd.matrix_s"; "cluster.row_euclidean_s"; "cluster.linkage_s"; "vptree.query_s";
      "db.index_cache.load_s"; "db.index_cache.save_s"; "db.ted_cache.load_s"; "db.ted_cache.save_s";
      "db.metric_cache.load_s"; "db.metric_cache.save_s"; "svz.decompress_s"; "msgpack.decode_s";
      "svz.compress_s"; "msgpack.encode_s" ]
  @ List.map (lo "count")
      [ "index_engine.cache_misses"; "lang_c.tokens"; "interp.steps"; "diff.pairs";
        "tree.flat_compiles"; "tree.intern_distinct"; "ted.dp_runs"; "ted.strategy_left";
        "ted.strategy_right"; "ted.scratch_grows"; "ted.cutoff_abandons"; "tbmd.pairs";
        "sched.retries"; "sched.respawns"; "sched.degraded"; "vptree.build_evals";
        "vptree.evals_per_query"; "vptree.brute_evals_per_query"; "serve.errors";
        "serve.overloaded"; "serve.queue_peak"; "serve.cold_misses"; "serve.lru_misses" ]
  @ List.map (hi "count")
      [ "index_engine.cache_hits"; "ted.equal_prunes"; "ted.size_prunes"; "ted.hist_prunes";
        "ted.pqg_prunes"; "ted.pq_prunes"; "serve.requests"; "serve.warm_hits"; "serve.lru_hits";
        "serve.vp_hits" ]
  @ List.map (lo "us") [ "ted.us_per_dp"; "tbmd.us_per_pair" ]
  @ [
      hi "1/s" "lang_c.tokens_per_s"; hi "ratio" "tree.intern_hit_ratio";
      hi "ratio" "ted.prune_ratio"; hi "ratio" "sched.matrix_speedup";
      hi "ratio" "db.ted_cache.hit_ratio"; lo "bytes" "db.index_cache.bytes";
      lo "bytes" "db.ted_cache.bytes"; lo "bytes" "serve.bytes_out";
    ]
  @ List.map (fun v -> lo "us" ("serve.rtt_p50_us." ^ v)) verbs
  @ List.map (fun v -> lo "us" ("serve.rtt_p99_us." ^ v)) verbs
  @ List.map (fun v -> lo "us" ("serve.handle_us." ^ v)) verbs
  @ [ lo "us" "serve.wire_us"; lo "us" "serve.encode_us"; lo "us" "serve.decode_us" ]
  @ List.map (fun l -> lo "s" ("self." ^ l ^ "_s")) self_layers
  @ [ lo "s" "trace.overhead_s"; lo "ratio" "failed_frac" ]

let json_num v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let metrics_json rows =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
         rows)
  ^ "}"

let spec () =
  let e2e =
    List.map
      (fun (n, u, b, bound) ->
        Printf.sprintf "    {\"name\": %S, \"unit\": %S, \"better\": %S, \"bound\": %g}" n u b bound)
      end_to_end
  in
  let layer =
    List.map
      (fun (n, u, better) ->
        Printf.sprintf "    {\"name\": %S, \"unit\": %S, \"better\": %S}" n u better)
      per_layer
  in
  Printf.printf "\"end_to_end\": [\n%s\n],\n\"per_layer\": [\n%s\n]\n"
    (String.concat ",\n" e2e) (String.concat ",\n" layer)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let print_spec = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S seconds of timed passes");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spec", Arg.Set print_spec, " print the metric tables of BENCHMARK.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !print_spec then (spec (); exit 0);
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  Sv_sched.Sched.Fault.set Sv_sched.Sched.Fault.none;
  let traced = !trace = 1 and seconds = float_of_int !seconds and seed = !seed in
  (* one CPU, or two for miniapp-cold's two workers; see Speed *)
  let cpus =
    List.filteri
      (fun i _ -> i < if !workload = "miniapp-cold" then 2 else 1)
      (Speed.allowed_cpus ())
  in
  if cpus = [] || not (Speed.pin_cpus cpus) then begin
    prerr_endline "perfbench: cannot pin the benchmark to its CPUs";
    exit 2
  end;
  let root = ".perfbench" in
  let dir = Printf.sprintf "%s/%s-%d-%d" root !workload seed (Unix.getpid ()) in
  Common.mkdir_p dir;
  let setup_s, e2e, attempted, failed, layer =
    Fun.protect
      ~finally:(fun () -> Common.rm_rf dir)
      (fun () ->
        let batch f =
          if traced then
            let o : Batch.outcome = f ~seed ~seconds ~traced ~dir in
            (nan, [], o.attempted, o.failed, o.layer)
          else
            let (o : Batch.outcome), samples =
              Speed.with_probes ~dir cpus (fun () -> f ~seed ~seconds ~traced ~dir)
            in
            (* time metrics in seconds of the reference host (see Speed),
               the unscaled ones logged beside them *)
            let raw (t0, t1) = t1 -. t0 and scaled = Speed.scaled samples in
            let setup g =
              Common.median (List.map (List.fold_left (fun acc w -> acc +. g w) 0.) o.setups)
            in
            let wall g = Common.median (List.map g o.windows) in
            List.iter2
              (fun cpu s ->
                Common.log "probe on CPU %d: %d samples, median %.4f ms" cpu (Array.length s)
                  (1e3 *. Common.median (List.map snd (Array.to_list s))))
              cpus samples;
            Common.log "unscaled medians: wall %.4f s, setup %.4f s" (wall raw) (setup raw);
            ( setup scaled,
              [ ("wall_s", wall scaled); ("peak_rss_mb", o.rss_mb) ],
              o.attempted,
              o.failed,
              o.layer )
        in
        match !workload with
        | "miniapp-cold" -> batch Batch.miniapp_cold
        | "corpus-warm" when traced ->
            (* The serve layer's per-layer metrics ride on this traced run.
               The warm pass answers every bounded TED query from the TED
               cache, ahead of the pruning cascade, so the cascade counters
               are those of the serve probe's in-process engine. *)
            let setup_s, e2e, attempted, failed, layer = batch Batch.corpus_warm in
            let a, f, l = Serve_probe.run ~seed ~dir in
            let cascade (n, _) = List.mem n Probes.cascade in
            let rest = List.filter (fun m -> not (cascade m)) in
            (setup_s, e2e, attempted + a, failed + f, List.filter cascade l @ rest layer @ rest l)
        | "corpus-warm" -> batch Batch.corpus_warm
        | _ -> batch Batch.corpus_ingest)
  in
  let layer = ("failed_frac", float_of_int failed /. float_of_int attempted) :: layer in
  if traced then
    Trace.write (Printf.sprintf "%s/trace-%s-%d.json" root !workload seed) !Trace.all;
  let rows =
    if traced then
      List.map (fun (n, u, _) -> (n, u, Option.value ~default:0. (List.assoc_opt n layer))) per_layer
    else
      List.map
        (fun (n, u, _, _) ->
          (n, u, if n = "setup_s" then setup_s else List.assoc n e2e))
        end_to_end
  in
  (* a metric that is not a number is a failed measurement, not a value *)
  let broken = List.filter (fun (_, _, v) -> not (Float.is_finite v)) rows in
  List.iter (fun (n, _, _) -> Common.log "%s is not a finite number" n) broken;
  let failed = failed + List.length broken in
  let rows = List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.)) rows in
  Common.log "%s seed %d: %d attempted, %d failed" !workload seed attempted failed;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    (failed = 0) attempted failed (metrics_json rows);
  exit (if failed = 0 then 0 else 1)
