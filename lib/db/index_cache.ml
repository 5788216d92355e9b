module M = Sv_msgpack.Msgpack

(* Bump when any indexing stage (preprocess, parse, lowering, inlining,
   interpreter-driven coverage, or the serialised payload layout) changes
   meaning: stale payloads must never decode as current ones. *)
let pipeline_version = 1

type cache = {
  tbl : (string, string) Hashtbl.t;  (* 16-byte key -> encoded payload *)
  mutable hits : int;
  mutable misses : int;
  mutable clean : Cache_file.stamp option;
      (* the file the contents were last read from or written to, while
         nothing has been added since *)
}

let create () = { tbl = Hashtbl.create 64; hits = 0; misses = 0; clean = None }

(* The key commits to everything that can change an indexing result: the
   sources themselves (the caller's digest spans file names and contents),
   the preprocessor define set, the language dialect, and the pipeline
   version. Any of them changing yields a fresh key, so invalidation is
   automatic and stale entries are merely unreachable. *)
let key ?(version = pipeline_version) ~source_digest ~defines ~dialect () =
  Digest.string
    (M.encode
       (M.Arr
          [
            M.Int version;
            M.Bin source_digest;
            M.Arr (List.map (fun d -> M.Str d) defines);
            M.Str dialect;
          ]))

let find c k =
  match Hashtbl.find_opt c.tbl k with
  | Some payload ->
      c.hits <- c.hits + 1;
      Some payload
  | None ->
      c.misses <- c.misses + 1;
      None

let valid_entry k payload = String.length k = 16 && String.length payload > 0

let add c k payload =
  if valid_entry k payload && not (Hashtbl.mem c.tbl k) then begin
    Hashtbl.replace c.tbl k payload;
    c.clean <- None
  end

(* Same defensive posture as [Ted_cache.merge]: entries may arrive from a
   faulted worker pipe or a twice-shipped degraded batch, so malformed
   ones are dropped and existing keys are never overwritten — merging the
   same batch twice is a no-op. *)
let merge c entries = List.iter (fun (k, payload) -> add c k payload) entries
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
      (M.Str "schema", M.Int pipeline_version);
      ( M.Str "index",
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
        | M.Int v when v = pipeline_version -> Ok ()
        | M.Int v -> Error (Printf.sprintf "unsupported index-cache schema %d" v)
        | _ -> Error "schema not an int"
      in
      let* entries_m = get "index" in
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
                | _ -> Error "malformed index-cache entry")
              (Ok ()) es
          in
          Ok c
      | _ -> Error "index not an array")
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
  Printf.sprintf "index-cache: %d entries, %d hits / %d misses this run"
    (size c) c.hits c.misses
