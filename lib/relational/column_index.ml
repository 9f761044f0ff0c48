module Values = Hashtbl.Make (Value)

type t = { col : int; buckets : Bag.t Values.t }

let col t = t.col

let add t tup n =
  let v = Tuple.get tup t.col in
  match Values.find t.buckets v with
  | bucket ->
      Bag.add bucket tup n;
      if Bag.is_empty bucket then Values.remove t.buckets v
  | exception Not_found ->
      if n <> 0 then begin
        let bucket = Bag.create () in
        Bag.add bucket tup n;
        Values.add t.buckets v bucket
      end

let of_bag ~col b =
  let t = { col; buckets = Values.create 64 } in
  Bag.iter (add t) b;
  t

let fold t v f init =
  match Values.find t.buckets v with
  | bucket -> Bag.fold f bucket init
  | exception Not_found -> init

let equal a b =
  a.col = b.col
  && Values.length a.buckets = Values.length b.buckets
  && Values.fold
       (fun v bucket ok ->
         ok
         &&
         match Values.find b.buckets v with
         | other -> Bag.equal bucket other
         | exception Not_found -> false)
       a.buckets true
