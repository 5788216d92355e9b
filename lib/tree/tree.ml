type 'a t = Node of 'a * 'a t list

let leaf x = Node (x, [])
let node x cs = Node (x, cs)
let label (Node (x, _)) = x
let children (Node (_, cs)) = cs

let rec size (Node (_, cs)) = List.fold_left (fun acc c -> acc + size c) 1 cs

(* Bounded breadth-first walk of the contents: enough of the labels of
   the top levels to tell trees apart, never the whole tree. *)
let shallow_hash t = Hashtbl.hash_param 32 256 t

let rec depth (Node (_, cs)) =
  1 + List.fold_left (fun acc c -> max acc (depth c)) 0 cs

let rec map f (Node (x, cs)) = Node (f x, List.map (map f) cs)
let rec fold f (Node (x, cs)) = f x (List.map (fold f) cs)

let preorder t =
  let rec go acc (Node (x, cs)) = List.fold_left go (x :: acc) cs in
  List.rev (go [] t)

let postorder t =
  let rec go (Node (x, cs)) acc = List.fold_right go cs (x :: acc) in
  go t []

let leaves t =
  let rec go (Node (x, cs)) acc =
    match cs with [] -> x :: acc | _ -> List.fold_right go cs acc
  in
  go t []

let count p t = fold (fun x sub -> (if p x then 1 else 0) + List.fold_left ( + ) 0 sub) t
let exists p t = fold (fun x sub -> p x || List.exists Fun.id sub) t

let rec filter_prune keep (Node (x, cs)) =
  if not (keep x) then None
  else Some (Node (x, List.filter_map (filter_prune keep) cs))

let filter_splice keep t =
  let rec go (Node (x, cs)) =
    let sub = List.concat_map go cs in
    if keep x then [ Node (x, sub) ] else sub
  in
  match go t with
  | [] -> None
  | [ t ] -> Some t
  | Node (x, cs) :: rest -> Some (Node (x, cs @ rest))

let rec equal eq (Node (a, ca)) (Node (b, cb)) =
  eq a b
  && List.length ca = List.length cb
  && List.for_all2 (equal eq) ca cb

let hash h t =
  fold
    (fun x sub ->
      List.fold_left (fun acc s -> (acc * 1000003) lxor s) (h x lxor 0x5bd1e995) sub
      land max_int)
    t

let pp pp_label fmt t =
  let rec go indent (Node (x, cs)) =
    Format.fprintf fmt "%s%a@\n" indent pp_label x;
    List.iter (go (indent ^ "  ")) cs
  in
  go "" t

let flatten_forest root ts = Node (root, ts)
