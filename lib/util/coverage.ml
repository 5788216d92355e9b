(* Per-file line counts. Lines in [0, dense_limit) live in a growable
   array indexed by line number, so a hit is one array update; any other
   line (a corrupt cache entry, a synthesised negative line) goes to a
   side table, so no input can force a huge allocation. A zero count
   means "never hit": every observer below filters on [n > 0]. *)

let dense_limit = 1 lsl 16

type file_counts = { mutable dense : int array; sparse : (int, int) Hashtbl.t }

type t = {
  tbl : (string, file_counts) Hashtbl.t;
  (* the last file looked up: consecutive hits almost always land in
     the same file *)
  mutable last : (string * file_counts) option;
}

type counter = { c_counts : file_counts; c_line : int }

let new_counts () = { dense = [||]; sparse = Hashtbl.create 1 }
let create () : t = { tbl = Hashtbl.create 16; last = None }

let file_counts t file =
  match t.last with
  | Some (f, fc) when String.equal f file -> fc
  | _ ->
      let fc =
        match Hashtbl.find_opt t.tbl file with
        | Some fc -> fc
        | None ->
            let fc = new_counts () in
            Hashtbl.replace t.tbl file fc;
            fc
      in
      t.last <- Some (file, fc);
      fc

let reserve fc line =
  let n = Array.length fc.dense in
  if line >= n then begin
    let cap = ref (max 64 n) in
    while !cap <= line do
      cap := 2 * !cap
    done;
    let d = Array.make (min !cap dense_limit) 0 in
    Array.blit fc.dense 0 d 0 n;
    fc.dense <- d
  end

let add fc line n =
  if line >= 0 && line < dense_limit then begin
    reserve fc line;
    fc.dense.(line) <- fc.dense.(line) + n
  end
  else
    Hashtbl.replace fc.sparse line
      (n + Option.value ~default:0 (Hashtbl.find_opt fc.sparse line))

let hit t ~file ~line = add (file_counts t file) line 1

let counter t ~file ~line =
  let fc = file_counts t file in
  if line >= 0 && line < dense_limit then reserve fc line;
  { c_counts = fc; c_line = line }

let incr c =
  let d = c.c_counts.dense and l = c.c_line in
  if l >= 0 && l < Array.length d then d.(l) <- d.(l) + 1 else add c.c_counts l 1

(* (line, count) pairs with a positive count, sorted by line *)
let line_counts fc =
  let sparse =
    Hashtbl.fold (fun l n acc -> if n > 0 then (l, n) :: acc else acc) fc.sparse []
  in
  let dense = ref [] in
  for l = Array.length fc.dense - 1 downto 0 do
    let n = fc.dense.(l) in
    if n > 0 then dense := (l, n) :: !dense
  done;
  List.merge compare (List.sort compare sparse) !dense

let count t ~file ~line =
  match Hashtbl.find_opt t.tbl file with
  | None -> 0
  | Some fc ->
      if line >= 0 && line < Array.length fc.dense then fc.dense.(line)
      else Option.value ~default:0 (Hashtbl.find_opt fc.sparse line)

let covered t ~file ~line = count t ~file ~line > 0

(* Sorted dump so serialising a recording is deterministic: it lists
   only lines that ran, whatever counters were created along the way. *)
let dump t =
  Hashtbl.fold (fun f fc acc -> (f, line_counts fc) :: acc) t.tbl []
  |> List.filter (fun (_, lines) -> lines <> [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let files t = List.map fst (dump t)

let lines_hit t ~file =
  match Hashtbl.find_opt t.tbl file with
  | None -> []
  | Some fc -> List.map fst (line_counts fc)

let restore entries =
  let t = create () in
  List.iter
    (fun (file, lines) ->
      List.iter (fun (line, n) -> if n > 0 then add (file_counts t file) line n) lines)
    entries;
  t

let merge a b = restore (dump a @ dump b)

let keep_loc t loc =
  if Loc.is_none loc then true
  else List.exists (fun line -> covered t ~file:loc.Loc.file ~line) (Loc.lines_covered loc)
