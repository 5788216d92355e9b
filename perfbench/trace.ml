(* In-memory spans around the benchmark's calls into each layer.

   A span is named ["<layer>.<what>"]; a span whose name has no dot (the
   root of a traced pass or probe) belongs to no layer, so its self time
   is the unattributed remainder. Spans are kept in memory, shipped back
   from forked children with their results, and written out once, when
   the benchmark ends. With tracing off, [span] is a plain call. *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

let on = ref false
let recorded : span list ref = ref []
let current = ref 0
let next_id = ref 0

let span name f =
  if not !on then f ()
  else begin
    incr next_id;
    let id = !next_id and parent = !current in
    current := id;
    let t0 = Common.now () in
    Fun.protect
      ~finally:(fun () ->
        recorded := { id; parent; name; t0; t1 = Common.now () } :: !recorded;
        current := parent)
      f
  end

(* Spans recorded in this process since the last call, oldest first. *)
let take () =
  let s = List.rev !recorded in
  recorded := [];
  s

(* Spans gathered from every child, with ids rebased so that spans of
   different children never share an id; [absorb] returns them rebased. *)
let all : span list ref = ref []
let base = ref 0

let absorb spans =
  let b = !base in
  let top = List.fold_left (fun m s -> max m s.id) 0 spans in
  let shift i = if i = 0 then 0 else i + b in
  let rebased = List.map (fun s -> { s with id = shift s.id; parent = shift s.parent }) spans in
  all := !all @ rebased;
  base := b + top;
  rebased

let dur s = s.t1 -. s.t0

let total name spans =
  List.fold_left (fun acc s -> if s.name = name then acc +. dur s else acc) 0. spans


let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> "unattributed"

(* Self time per layer: each span's duration minus what its child spans
   cover, summed by layer. *)
let self_times spans =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace kids s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt kids s.parent)))
    spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value ~default:0. (Hashtbl.find_opt kids s.id) in
      let l = layer_of s.name in
      Hashtbl.replace by_layer l
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_layer l)))
    spans;
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) by_layer []

(* Chrome trace-event JSON (load in chrome://tracing or Perfetto). *)
let write path spans =
  let t0 = List.fold_left (fun m s -> min m s.t0) infinity spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}\n"
            (if i = 0 then "" else ",")
            s.name
            ((s.t0 -. t0) *. 1e6)
            (dur s *. 1e6) s.id s.parent)
        spans;
      output_string oc "]\n")
