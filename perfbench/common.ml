(* Shared plumbing of the benchmark: clocks, statistics, forked
   children, memory readings and the canonical text of program outputs. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* [timed f] is [f ()] with the window (start, end) it ran in, on the
   wall clock that every process of the benchmark shares. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, (t0, now ()))

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Linear-interpolated percentile, [p] in [0, 100]. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let r = p /. 100. *. float_of_int (n - 1) in
      let i = truncate r in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* A memory figure of this process from /proc/self/status, in MiB:
   "VmHWM" is the peak resident set, "VmRSS" the current one. *)
let status_mb field =
  let key = field ^ ":" in
  let k = String.length key in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > k && String.sub line 0 k = key then
              Scanf.sscanf (String.sub line k (String.length line - k)) " %d" (fun kb ->
                  float_of_int kb /. 1024.)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let read_all fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* [in_child f] runs [f] in a forked child and returns its result. The
   parent only ever holds one copy of the generated inputs, so every
   child starts from the program state of a fresh process: the intern
   table, compiled flat kernels and the Tbmd memo a child fills die with
   it. The child's peak RSS starts at what it inherits, the parent's
   resident set, so the parent keeps nothing else. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  (* the child inherits the parent's heap: hand it a compact one, so its
     collector does not pay for garbage left by input generation *)
  Gc.compact ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let res : ('a, string) result =
        try Ok (f ()) with e -> Error (Printexc.to_string e)
      in
      let s = Marshal.to_string res [] in
      let rec write off =
        if off < String.length s then
          write (off + Unix.write_substring w s off (String.length s - off))
      in
      (try write 0 with _ -> ());
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let s = Fun.protect ~finally:(fun () -> Unix.close r) (fun () -> read_all r) in
      ignore (waitpid_retry pid);
      if s = "" then failwith "benchmark child died without a result"
      else
        match (Marshal.from_string s 0 : ('a, string) result) with
        | Ok v -> v
        | Error msg -> failwith ("benchmark child failed: " ^ msg))

(* Canonical bytes of clustering output: labels, every cell and merge
   height in hex float notation, so byte equality is bit equality. *)
let render_matrix (m : Sv_cluster.Cluster.matrix) =
  let b = Buffer.create 4096 in
  Array.iter (fun l -> Buffer.add_string b l; Buffer.add_char b '\t') m.labels;
  Buffer.add_char b '\n';
  Array.iter
    (fun row ->
      Array.iter (fun x -> Printf.bprintf b "%h " x) row;
      Buffer.add_char b '\n')
    m.data;
  Buffer.contents b

let rec render_dendro = function
  | Sv_cluster.Cluster.Leaf i -> string_of_int i
  | Merge (a, b, h) -> Printf.sprintf "(%s,%s,%h)" (render_dendro a) (render_dendro b) h

let render_clustering (m, d) = render_matrix m ^ render_dendro d ^ "\n"

(* A seeded sample of [k] distinct indices below [n]. *)
let sample ~seed ~k n =
  let st = Random.State.make [| seed; n; k |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  List.sort compare (Array.to_list (Array.sub a 0 (min k n)))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt
