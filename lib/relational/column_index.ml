module Values = Hashtbl.Make (Value)

(* Most values of a join column carry one tuple: at fan-out 1 every
   bucket does. Such a bucket holds its tuple inline; a second distinct
   tuple makes it a [Bag], and cancelling back to one tuple makes it
   inline again. So a bucket is [One] exactly when it holds one tuple,
   and two indexes with the same contents have the same buckets. *)
type bucket = One of Tuple.t * int | Many of Bag.t
type t = { col : int; buckets : bucket Values.t }

let col t = t.col

let only b = Bag.fold (fun tup c _ -> One (tup, c)) b (Many b)

let add t tup n =
  if n <> 0 then
    let v = Tuple.get tup t.col in
    match Values.find t.buckets v with
    | One (u, c) when Tuple.equal u tup ->
        if c + n = 0 then Values.remove t.buckets v
        else Values.replace t.buckets v (One (u, c + n))
    | One (u, c) ->
        let b = Bag.create ~initial_size:3 () in
        Bag.add b u c;
        Bag.add b tup n;
        Values.replace t.buckets v (Many b)
    | Many b -> (
        Bag.add b tup n;
        match Bag.cardinal b with
        | 0 -> Values.remove t.buckets v
        | 1 -> Values.replace t.buckets v (only b)
        | _ -> ())
    | exception Not_found -> Values.add t.buckets v (One (tup, n))

let of_bag ~col b =
  let t = { col; buckets = Values.create 64 } in
  Bag.iter (add t) b;
  t

let iter t v f =
  match Values.find t.buckets v with
  | One (tup, c) -> f tup c
  | Many b -> Bag.iter f b
  | exception Not_found -> ()

let bucket_equal a b =
  match (a, b) with
  | One (u, c), One (u', c') -> c = c' && Tuple.equal u u'
  | Many b, Many b' -> Bag.equal b b'
  | One _, Many _ | Many _, One _ -> false

let equal a b =
  a.col = b.col
  && Values.length a.buckets = Values.length b.buckets
  && Values.fold
       (fun v bucket ok ->
         ok
         &&
         match Values.find b.buckets v with
         | other -> bucket_equal bucket other
         | exception Not_found -> false)
       a.buckets true
