module H = Hashtbl.Make (Tuple)

(* [total] is the signed sum of the counts in [tbl]. Every mutation adds
   its [n] to it, so reading it costs nothing — an aggregate read of the
   view would otherwise fold the whole table. *)
type t = { tbl : int H.t; mutable total : int }

let create ?(initial_size = 16) () = { tbl = H.create initial_size; total = 0 }
let copy b = { tbl = H.copy b.tbl; total = b.total }

(* A count that reaches zero leaves the table, but [n] still moves the
   total: the entry's old count was [-n]. *)
let add b tup n =
  if n <> 0 then begin
    b.total <- b.total + n;
    match H.find b.tbl tup with
    | c ->
        let c' = c + n in
        if c' = 0 then H.remove b.tbl tup else H.replace b.tbl tup c'
    | exception Not_found -> H.add b.tbl tup n
  end

let add_new b tup n =
  b.total <- b.total + n;
  H.add b.tbl tup n

let count b tup = match H.find b.tbl tup with c -> c | exception Not_found -> 0
let mem b tup = H.mem b.tbl tup
let is_empty b = H.length b.tbl = 0
let cardinal b = H.length b.tbl
let total b = b.total
let weight b = H.fold (fun _ c acc -> acc + abs c) b.tbl 0
let has_negative b = H.fold (fun _ c acc -> acc || c < 0) b.tbl false
let iter f b = H.iter f b.tbl
let fold f b init = H.fold f b.tbl init
(* Iterating over [src] while [add] mutates [into] is undefined when the
   two are the same table — snapshot first. Self-merge doubles every
   count; self-diff empties the bag. *)
let merge_into ~into src =
  let src = if into == src then copy src else src in
  iter (fun tup c -> add into tup c) src

let diff_into ~into src =
  let src = if into == src then copy src else src in
  iter (fun tup c -> add into tup (-c)) src

let to_sorted_list b =
  let l = fold (fun tup c acc -> (tup, c) :: acc) b [] in
  List.sort (fun (a, _) (b, _) -> Tuple.compare a b) l

let of_list l =
  let b = create ~initial_size:(List.length l * 2) () in
  List.iter (fun (tup, c) -> add b tup c) l;
  b

let equal a b =
  cardinal a = cardinal b && fold (fun tup c ok -> ok && count b tup = c) a true

let pp ppf b =
  Format.pp_print_char ppf '{';
  List.iteri
    (fun i (tup, c) ->
      if i > 0 then Format.pp_print_string ppf ", ";
      Format.fprintf ppf "%a[%d]" Tuple.pp tup c)
    (to_sorted_list b);
  Format.pp_print_char ppf '}'
