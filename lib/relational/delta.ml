type t = Bag.t

let empty () = Bag.create ~initial_size:3 ()
let copy = Bag.copy

let insertion tup =
  let d = empty () in
  Bag.add d tup 1;
  d

let deletion tup =
  let d = empty () in
  Bag.add d tup (-1);
  d

let of_list = Bag.of_list

let of_relation ?(sign = 1) r =
  let d = Bag.create ~initial_size:(Relation.cardinal r) () in
  Relation.iter (fun tup c -> Bag.add d tup (sign * c)) r;
  d

let sum ds =
  let acc = empty () in
  List.iter (fun d -> Bag.merge_into ~into:acc d) ds;
  acc

let negate d =
  let acc = Bag.create ~initial_size:(Bag.cardinal d) () in
  Bag.iter (fun tup c -> Bag.add acc tup (-c)) d;
  acc

let add = Bag.add
let count = Bag.count
let is_empty = Bag.is_empty
let cardinal = Bag.cardinal
let weight = Bag.weight
let iter = Bag.iter
let fold = Bag.fold
let to_sorted_list = Bag.to_sorted_list
let equal = Bag.equal
let pp = Bag.pp

let distinct d =
  let acc = empty () in
  Bag.iter (fun tup _ -> Bag.add acc tup 1) d;
  acc

let positive_part d =
  let acc = empty () in
  Bag.iter (fun tup c -> if c > 0 then Bag.add acc tup c) d;
  acc

let negative_part d =
  let acc = empty () in
  Bag.iter (fun tup c -> if c < 0 then Bag.add acc tup (-c)) d;
  acc
