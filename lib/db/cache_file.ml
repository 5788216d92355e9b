type stamp = { path : string; size : int; mtime : float }

let stamp_of path (st : Unix.stats) =
  { path; size = st.Unix.st_size; mtime = st.Unix.st_mtime }

let read path =
  if not (Sys.file_exists path) then None
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let st = Unix.fstat (Unix.descr_of_in_channel ic) in
        let bytes = really_input_string ic (in_channel_length ic) in
        Some (bytes, stamp_of path st))

let write path bytes =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc bytes;
      flush oc;
      stamp_of path (Unix.fstat (Unix.descr_of_out_channel oc)))

let unchanged s path =
  match s with
  | Some s when s.path = path -> (
      match Unix.stat path with
      | st -> st.Unix.st_size = s.size && st.Unix.st_mtime = s.mtime
      | exception Unix.Unix_error _ -> false)
  | _ -> false
