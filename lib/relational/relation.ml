type t = Bag.t

let create = Bag.create
let copy = Bag.copy

let insert r tup n =
  if n < 1 then invalid_arg "Relation.insert: count < 1";
  Bag.add r tup n

let delete r tup n =
  if n < 1 then invalid_arg "Relation.delete: count < 1";
  if Bag.count r tup < n then
    invalid_arg
      (Printf.sprintf "Relation.delete: %s has count %d < %d"
         (Tuple.to_string tup) (Bag.count r tup) n);
  Bag.add r tup (-n)

let count = Bag.count
let is_empty = Bag.is_empty
let cardinal = Bag.cardinal
let total = Bag.total
let iter = Bag.iter
let to_sorted_list = Bag.to_sorted_list

let of_list l =
  let b = Bag.of_list l in
  if Bag.has_negative b then invalid_arg "Relation.of_list: negative count";
  b

let of_tuples l = of_list (List.map (fun tup -> (tup, 1)) l)
let equal = Bag.equal
let pp = Bag.pp
let as_bag r = r
let adopt b = b

let apply r delta =
  let bad =
    Bag.fold
      (fun tup c acc -> if Bag.count r tup + c < 0 then tup :: acc else acc)
      delta []
  in
  match bad with
  | [] ->
      Bag.merge_into ~into:r delta;
      Ok ()
  | _ -> Error (List.sort Tuple.compare bad)

let applied r delta =
  let r' = copy r in
  match apply r' delta with Ok () -> Ok r' | Error ts -> Error ts
