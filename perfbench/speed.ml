(* Host speed, measured on the benchmark's own CPUs.

   On a shared host the same pass on the same input runs up to 2.8x
   slower from one minute to the next: the user time of the pass grows
   with its wall time, steal time stays near zero, and the two vCPUs
   slow independently of each other. So the benchmark pins itself to one
   CPU (two for a workload that runs two workers) and runs a probe on
   each of them: a forked process that, every [interval] seconds, times
   [kernel], a fixed piece of work that calls no code of the program
   under test. A duration measured over a window is then rescaled by
   [reference_s] over the probe time in that window: it reads as the
   duration on a host where the kernel takes [reference_s]. The host's
   speed cancels; the program's does not, since nothing the program
   does changes the kernel. *)

external allowed_cpus : unit -> int list = "perfbench_allowed_cpus"
external pin_cpus : int list -> bool = "perfbench_pin_cpus"

let interval = 0.05

(* About the kernel's median time on the 2-vCPU VM the benchmark was
   tuned on, in a calm minute. *)
let reference_s = 2e-3

(* Two parts, ~2 ms together. String keys into a balanced map:
   allocation, pointer chasing and string comparison in the core's own
   caches, which slow when another tenant shares the core. A sum over a
   4 MB array, which slows when another tenant contends for the shared
   cache and memory bandwidth. The program's passes slow with both; with
   either part alone the scaled times of a run still drifted with the
   host. *)
module SM = Map.Make (String)

let kernel big =
  let m = ref SM.empty in
  for i = 0 to 1199 do
    m := SM.add (string_of_int (i * 7919 mod 10007)) i !m
  done;
  let s = ref 0 in
  Array.iter (fun x -> s := !s + x) big;
  ignore (Sys.opaque_identity (SM.cardinal !m, !s))

type probe = { pid : int; file : string }

(* (end time, duration) of each kernel run, in order *)
type samples = (float * float) array

(* Start a probe pinned to [cpu]; it appends its samples to a file in
   [dir] and exits when killed or when the benchmark process is gone. *)
let start ~dir cpu =
  let file = Printf.sprintf "%s/speed-%d.log" dir cpu in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let parent = Unix.getppid () in
      (try
         if pin_cpus [ cpu ] then begin
           let oc = open_out_bin file in
           let big = Array.init (512 * 1024) Fun.id in
           while Unix.getppid () = parent do
             Unix.sleepf interval;
             let t0 = Unix.gettimeofday () in
             kernel big;
             let t1 = Unix.gettimeofday () in
             Printf.fprintf oc "%.6f %.9f\n%!" t1 (t1 -. t0)
           done
         end
       with _ -> ());
      Unix._exit 0
  | pid -> { pid; file }

let stop p : samples =
  (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Common.waitpid_retry p.pid);
  match Common.read_file p.file with
  | exception Sys_error _ -> [||]
  | s ->
      String.split_on_char '\n' s
      |> List.filter_map (fun l ->
             match Scanf.sscanf l "%f %f%!" (fun a b -> (a, b)) with
             | v -> Some v
             | exception _ -> None)
      |> Array.of_list

(* [with_probes ~dir cpus f] runs [f] with a probe on each CPU of
   [cpus] and returns its result and their samples, one array per CPU.
   The probes are stopped and waited for on every path out. *)
let with_probes ~dir cpus f =
  let probes = List.map (start ~dir) cpus in
  let samples = ref [] in
  let v = Fun.protect ~finally:(fun () -> samples := List.map stop probes) f in
  (v, !samples)

(* A window shorter than [min_span] seconds is widened to it, so that it
   still holds a few samples. *)
let min_span = 0.5

(* The probe time over the window [t0, t1]: per CPU the median of its
   samples in the window, then the mean over CPUs. *)
let probe_time (per_cpu : samples list) (t0, t1) =
  let pad = Float.max 0. ((min_span -. (t1 -. t0)) /. 2.) in
  let lo = t0 -. pad and hi = t1 +. pad in
  let medians =
    List.map
      (fun s ->
        Array.to_list s
        |> List.filter_map (fun (t, d) -> if t >= lo && t <= hi then Some d else None)
        |> Common.median)
      per_cpu
  in
  List.fold_left ( +. ) 0. medians /. float_of_int (List.length medians)

(* The window's duration on the reference host. *)
let scaled per_cpu (t0, t1) = (t1 -. t0) *. reference_s /. probe_time per_cpu (t0, t1)
