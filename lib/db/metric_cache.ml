module M = Sv_msgpack.Msgpack
module Vptree = Sv_metric.Vptree

(* Bump when the VP-tree representation, the distance semantics feeding
   it, or the payload layout changes meaning: stale indexes must never
   decode as current ones. *)
let metric_schema = 1

type cache = {
  tbl : (string, string) Hashtbl.t;  (* 16-byte key -> encoded repr *)
  mutable hits : int;
  mutable misses : int;
  mutable clean : Cache_file.stamp option;
      (* the file the contents were last read from or written to, while
         nothing has been added since *)
}

let create () = { tbl = Hashtbl.create 16; hits = 0; misses = 0; clean = None }

(* The key commits to everything that can change the persisted tree: the
   corpus digest (which itself spans every codebase's indexed payload, in
   candidate order — ids are positional), the metric and variant names,
   and the schema version. Any of them changing yields a fresh key, so
   invalidation is automatic and stale entries are merely unreachable. *)
let key ?(version = metric_schema) ~corpus_digest ~metric ~variant () =
  Digest.string
    (M.encode
       (M.Arr
          [
            M.Int version;
            M.Bin corpus_digest;
            M.Str metric;
            M.Str variant;
          ]))

let valid_entry k payload = String.length k = 16 && String.length payload > 0

let encode_tree t =
  let repr = Vptree.to_repr t in
  M.encode (M.Arr (Array.to_list (Array.map (fun i -> M.Int i) repr)))

(* Full defensive decode: msgpack shape, then [Vptree.of_repr]'s
   structural validation, then — because ids are positional into the
   candidate array — the requirement that the element set is exactly
   0..n−1. Any failure reads as a miss, so a mangled payload costs a
   cold rebuild, never a crash or a tree whose ids point outside the
   corpus. *)
let decode_tree payload =
  match M.decode payload with
  | exception M.Decode_error _ -> None
  | M.Arr items -> (
      let ok = ref true in
      let repr =
        Array.of_list
          (List.map
             (function
               | M.Int i -> i
               | _ ->
                   ok := false;
                   0)
             items)
      in
      if not !ok then None
      else
        match Vptree.of_repr repr with
        | None -> None
        | Some t ->
            let els = Vptree.elements t in
            let dense = ref true in
            Array.iteri (fun i x -> if x <> i then dense := false) els;
            if !dense then Some t else None)
  | _ -> None

let find c k =
  match Hashtbl.find_opt c.tbl k with
  | Some payload -> (
      match decode_tree payload with
      | Some t ->
          c.hits <- c.hits + 1;
          Some t
      | None ->
          c.misses <- c.misses + 1;
          None)
  | None ->
      c.misses <- c.misses + 1;
      None

(* Same defensive posture as [Index_cache.merge]: malformed entries are
   dropped and existing keys never overwritten, so merging twice is a
   no-op. Raw payloads (not trees) so merge never pays a decode. *)
let insert c k payload =
  if valid_entry k payload && not (Hashtbl.mem c.tbl k) then begin
    Hashtbl.replace c.tbl k payload;
    c.clean <- None
  end

let add c k t = insert c k (encode_tree t)
let merge c entries = List.iter (fun (k, payload) -> insert c k payload) entries
let size c = Hashtbl.length c.tbl
let hits c = c.hits
let misses c = c.misses

(* Sorted serialisation: the artifact is a pure function of the contents,
   so runs that populated the cache in different orders write
   byte-identical files. *)
let to_msgpack c =
  let entries =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.tbl []
    |> List.sort (fun (ka, _) (kb, _) -> String.compare ka kb)
  in
  M.Map
    [
      (M.Str "schema", M.Int metric_schema);
      ( M.Str "metric",
        M.Arr (List.map (fun (k, v) -> M.Arr [ M.Bin k; M.Bin v ]) entries) );
    ]

let ( let* ) = Result.bind

let of_msgpack = function
  | M.Map fields -> (
      let get name =
        match List.assoc_opt (M.Str name) fields with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "missing field %s" name)
      in
      let* schema = get "schema" in
      let* () =
        match schema with
        | M.Int v when v = metric_schema -> Ok ()
        | M.Int v ->
            Error (Printf.sprintf "unsupported metric-cache schema %d" v)
        | _ -> Error "schema not an int"
      in
      let* entries_m = get "metric" in
      match entries_m with
      | M.Arr es ->
          let c = create () in
          let* () =
            List.fold_left
              (fun acc e ->
                let* () = acc in
                match e with
                | M.Arr [ M.Bin k; M.Bin v ] when valid_entry k v ->
                    Hashtbl.replace c.tbl k v;
                    Ok ()
                | _ -> Error "malformed metric-cache entry")
              (Ok ()) es
          in
          Ok c
      | _ -> Error "metric not an array")
  | _ -> Error "cache root not a map"

let save c = Sv_svz.Svz.compress (M.encode (to_msgpack c))

let load bytes =
  match Sv_svz.Svz.decompress bytes with
  | exception Sv_svz.Svz.Corrupt msg -> Error ("corrupt cache: " ^ msg)
  | raw -> (
      match M.decode raw with
      | exception M.Decode_error msg -> Error ("malformed msgpack: " ^ msg)
      | v -> of_msgpack v)

let save_file path c =
  if not (Cache_file.unchanged c.clean path) then
    c.clean <- Some (Cache_file.write path (save c))

(* A missing or damaged cache file just means a cold start. *)
let load_file path =
  match Cache_file.read path with
  | None -> create ()
  | Some (bytes, stamp) -> (
      match load bytes with
      | Ok c ->
          c.clean <- Some stamp;
          c
      | Error _ -> create ())

let stats c =
  Printf.sprintf "metric-cache: %d entries, %d hits / %d misses this run"
    (size c) c.hits c.misses
