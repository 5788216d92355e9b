(* The serve probe: a resident `sv serve` daemon in a forked child,
   warmed with a seeded request mix, then asked a prefix of the mix one
   request at a time on one connection. Every reply is compared with the
   in-process [Engine] render of the same request. It gives the serve
   layer's per-layer metrics on the traced run of corpus-warm. *)

open Common
module Pr = Sv_serve.Protocol
module E = Sv_serve.Engine
module J = Sv_jsonx.Jsonx

(* Each app with the models the mix draws on. CUDA and HIP are left
   out: their `nearest` takes 120–190 ms against 45–65 ms for the other
   C models, and the handful of them in a prefix of the mix would decide
   the per-verb p99 from seed to seed. *)
let pool =
  [
    ("babelstream", [| "serial"; "omp"; "kokkos"; "stdpar" |]);
    ("babelstream-f", [| "sequential"; "array"; "omp"; "acc" |]);
  ]

let apps = List.map fst pool
let mix_length = 400
let metrics = [ "sloc"; "lloc"; "source" ]
let verbs = [ "compare"; "nearest"; "matrix"; "cluster"; "index"; "status" ]

(* The request mix: a fixed multiset, so that every seed offers the
   same load, in an order the seed shuffles. Shares: 65% compare, 10%
   nearest, 10% matrix, 5% cluster, 5% index, 5% status, each verb cycling
   through the apps and through the [pool] models of each app (the pool
   bounds how many distinct requests set-up warms). *)
let mix ~seed =
  let napps = List.length apps in
  let shares =
    [ ("compare", 65); ("nearest", 10); ("matrix", 10); ("cluster", 5); ("index", 5); ("status", 5) ]
  in
  let reqs =
    List.concat_map
      (fun (verb, pct) ->
        List.init (mix_length * pct / 100) (fun i ->
            let app, ms = List.nth pool (i mod napps) in
            let k = i / napps and m = Array.length ms in
            match verb with
            | "compare" ->
                (* every ordered pair of distinct models in turn *)
                let p = k mod (m * (m - 1)) in
                let b = p / (m - 1) in
                let t = (b + 1 + (p mod (m - 1))) mod m in
                Pr.Compare { app; base = ms.(b); target = ms.(t) }
            | "nearest" ->
                Pr.Nearest { app; model = ms.(k mod m); metric = "t_sem"; k = 3; budget = None; epsilon = None }
            | "matrix" -> Pr.Matrix { app; metric = List.nth metrics (k mod List.length metrics) }
            | "cluster" -> Pr.Cluster { app; metric = List.nth metrics (k mod List.length metrics) }
            | "index" -> Pr.Index { app; model = ms.(k mod m) }
            | _ -> Pr.Status))
      shares
  in
  let st = Random.State.make [| seed; 0x5e7e |] in
  let a = Array.of_list reqs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let key req = Pr.encode_request req

let distinct reqs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun r ->
      let k = key r in
      if Hashtbl.mem seen k then false
      else (
        Hashtbl.add seen k ();
        true))
    reqs

(* The daemon as `sv serve -j 1 --lru-mb 64` would run it. *)
let config () = { (E.default_config ()) with jobs = 1; lru_budget = 64 lsl 20 }

(* ------------------------------------------------------------------ *)
(* Connections                                                          *)

type conn = { fd : Unix.file_descr; rd : Pr.Reader.t }

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go tries =
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
        Unix.sleepf 0.02;
        go (tries - 1)
  in
  go 500;
  { fd; rd = Pr.Reader.create () }

let write_all fd s =
  let rec go off =
    if off < String.length s then go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Read what is available; return the complete reply payloads. *)
let read_frames c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "daemon closed the connection";
  Pr.Reader.feed c.rd (Bytes.sub_string chunk 0 n);
  let rec frames acc =
    match Pr.Reader.next c.rd with
    | `Frame p -> frames (p :: acc)
    | `Awaiting -> List.rev acc
    | `Oversized _ -> failwith "oversized reply"
  in
  frames []

let rec await c = match read_frames c with [] -> await c | p :: _ -> p

let call c req =
  write_all c.fd (Pr.frame (Pr.encode_request req));
  Pr.decode_response (await c)

let status_ints c =
  match call c Pr.Status with
  | Ok (_, Pr.Status_of fields) ->
      List.filter_map (fun (k, v) -> match v with J.Int i -> Some (k, i) | _ -> None) fields
  | _ -> failwith "status request failed"

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                     *)

let start_daemon socket =
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.dup2 Unix.stderr Unix.stdout;
      (try Sv_serve.Server.serve ~socket (E.create (config ())) with _ -> Unix._exit 1);
      Unix._exit 0
  | pid -> pid

let stop_daemon pid c =
  (try ignore (call c Pr.Shutdown) with _ -> ( try Unix.kill pid Sys.sigkill with _ -> ()));
  (try Unix.close c.fd with _ -> ());
  ignore (waitpid_retry pid)

(* ------------------------------------------------------------------ *)
(* Requests                                                             *)

(* A reply passes when it is [ok] and, for the output verbs, its output
   is byte-identical to the in-process engine's. *)
let reply_ok reference req resp =
  let ok =
    match (req, resp) with
    | Pr.Status, Ok (_, Pr.Status_of _) -> true
    | _, Ok (_, Pr.Output { output; _ }) -> Hashtbl.find_opt reference (key req) = Some output
    | _ -> false
  in
  if not ok then
    log "serve probe: failed reply to %s: %s" (key req)
      (match resp with
      | Ok (_, Pr.Output { output; _ }) -> "output differs:\n" ^ output
      | Ok (_, Pr.Error { kind; message }) -> Pr.kind_to_string kind ^ ": " ^ message
      | Ok (_, Pr.Overloaded _) -> "overloaded"
      | Ok _ -> "unexpected reply"
      | Error e -> e);
  ok

type sample = { verb : string; lat : float; ok : bool }

(* One request at a time on one connection, each request a span with
   the client's encode, round trip and decode as children. *)
let sequential ~reference c reqs =
  List.map
    (fun req ->
      Trace.span "request" (fun () ->
          let frame = Trace.span "serve.encode" (fun () -> Pr.frame (Pr.encode_request req)) in
          let t0 = now () in
          let payload = Trace.span "serve.rtt" (fun () -> write_all c.fd frame; await c) in
          let t = now () in
          let resp = Trace.span "serve.decode" (fun () -> Pr.decode_response payload) in
          { verb = Pr.verb_of_request req; lat = t -. t0; ok = reply_ok reference req resp }))
    reqs

let per_verb name f samples =
  List.map
    (fun v ->
      let xs = List.filter_map (fun s -> if s.verb = v then Some s.lat else None) samples in
      (name ^ "." ^ v, if xs = [] then 0. else f xs *. 1e6))
    verbs

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)

(* The mix of [seed], and its distinct requests in one canonical order,
   whatever the seed: the order set-up warms in. *)
let requests ~seed =
  let reqs = mix ~seed in
  (reqs, List.sort (fun a b -> compare (key a) (key b)) (distinct reqs))

(* The in-process reference: a fresh engine warmed with the distinct
   requests, then asked each once more. It also times [Engine.handle]
   over the whole mix, with the TED counters. *)
let reference ~reqs ~warm =
  let outputs, layer =
    in_child (fun () ->
        let e = E.create (config ()) in
        List.iter (fun r -> ignore (E.handle e r)) warm;
        let outputs =
          List.filter_map
            (fun r ->
              match E.handle e r with Pr.Output { output; _ } -> Some (key r, output) | _ -> None)
            warm
        in
        let s0 = Probes.snapshot () in
        let timed =
          List.map
            (fun r ->
              let _, t = time (fun () -> E.handle e r) in
              { verb = Pr.verb_of_request r; lat = t; ok = true })
            reqs
        in
        let layer = per_verb "serve.handle_us" median timed @ Probes.facts_since s0 in
        (outputs, layer))
  in
  let table = Hashtbl.create 64 in
  List.iter (fun (k, o) -> Hashtbl.replace table k o) outputs;
  (table, layer)

(* Start a daemon and send it every distinct request once. Returns the
   daemon, a connection to it, and whether every reply matched the
   reference. *)
let start_warm ~socket ~reference ~warm =
  let pid = start_daemon socket in
  match
    let c = connect socket in
    (c, List.filter (fun r -> not (reply_ok reference r (call c r))) warm = [])
  with
  | c, ok -> (pid, c, ok)
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_retry pid);
      raise e

let status_delta ~before ~after k =
  Option.value ~default:0 (List.assoc_opt k after) - Option.value ~default:0 (List.assoc_opt k before)

(* The daemon's [status] counters, and [cold_misses] over a phase. *)
let status_layer ~before ~after =
  List.map
    (fun k -> ("serve." ^ k, float_of_int (Option.value ~default:0 (List.assoc_opt k after))))
    [ "requests"; "errors"; "overloaded"; "queue_peak"; "bytes_out"; "warm_hits"; "lru_hits";
      "lru_misses"; "vp_hits" ]
  @ [ ("serve.cold_misses", float_of_int (status_delta ~before ~after "cold_misses")) ]

let sequential_requests = 120

(* Per-request round trips on one connection over the first
   [sequential_requests] of the mix, traced: per-verb round-trip
   percentiles, the client's encode and decode, and the wire time.
   Returns the metrics and the number of failed replies. *)
let sequential_layer ~reference ~handle_layer ~reqs c =
  let probe = List.filteri (fun i _ -> i < sequential_requests) reqs in
  Trace.on := true;
  let samples = sequential ~reference c probe in
  Trace.on := false;
  let spans = Trace.absorb (Trace.take ()) in
  let med_us name =
    median (List.filter_map (fun s -> if s.Trace.name = name then Some (Trace.dur s) else None) spans)
    *. 1e6
  in
  let p50 = per_verb "serve.rtt_p50_us" median samples in
  let handle v = Option.value ~default:0. (List.assoc_opt ("serve.handle_us." ^ v) handle_layer) in
  ( p50
    @ per_verb "serve.rtt_p99_us" (percentile 99.) samples
    @ List.filter_map
        (fun (l, v) -> if l = "unattributed" then None else Some ("self." ^ l ^ "_s", v))
        (Trace.self_times spans)
    @ [
        ("serve.wire_us", List.assoc "serve.rtt_p50_us.compare" p50 -. handle "compare");
        ("serve.encode_us", med_us "serve.encode");
        ("serve.decode_us", med_us "serve.decode");
      ],
    List.length (List.filter (fun s -> not s.ok) samples) )

(* ------------------------------------------------------------------ *)
(* The probe                                                            *)

(* The serve layer's per-layer metrics: one daemon warmed with the mix,
   the sequential round trips, its status counters (resident serving
   must not index) and the in-process [Engine.handle] times. The
   unattributed remainder belongs to the workload the probe rides on. *)
let run ~seed ~dir =
  let socket = dir ^ "/sv.sock" in
  let reqs, warm = requests ~seed in
  let reference, handle_layer = reference ~reqs ~warm in
  let pid, c, ok = start_warm ~socket ~reference ~warm in
  Fun.protect
    ~finally:(fun () -> stop_daemon pid c)
    (fun () ->
      let before = status_ints c in
      let layer, bad = sequential_layer ~reference ~handle_layer ~reqs c in
      let after = status_ints c in
      let cold = status_delta ~before ~after "cold_misses" <> 0 in
      let failed = bad + (if ok then 0 else 1) + if cold then 1 else 0 in
      (sequential_requests + 1, failed, handle_layer @ layer @ status_layer ~before ~after))
