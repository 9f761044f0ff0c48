open Repro_relational

let require_keys ~algorithm view =
  if not (View_def.includes_all_keys view) then
    invalid_arg
      (Printf.sprintf
         "%s requires the view to project a unique key of every base \
          relation (paper §3); view %s does not"
         algorithm (View_def.name view))

let source_tuple_key view j tup =
  let keys = Schema.key_indices (View_def.schema view j) in
  Array.of_list (List.map (fun a -> tup.(a)) keys)

let full_tuple_key view j tup =
  let ofs = View_def.offset view j in
  let keys = Schema.key_indices (View_def.schema view j) in
  Array.of_list (List.map (fun a -> tup.(ofs + a)) keys)

let view_tuple_key view j tup =
  let positions = View_def.view_key_positions view j in
  Array.of_list (List.map (fun p -> tup.(p)) positions)

let kill_full view ~full = function
  | [] -> ()
  | kills ->
      let keys = Hashtbl.create 8 in
      List.iter (fun kill -> Hashtbl.replace keys kill ()) kills;
      let sources = List.sort_uniq Int.compare (List.map fst kills) in
      let doomed =
        Delta.fold
          (fun tup c acc ->
            if
              List.exists
                (fun j -> Hashtbl.mem keys (j, full_tuple_key view j tup))
                sources
            then (tup, c) :: acc
            else acc)
          full []
      in
      List.iter (fun (tup, c) -> Delta.add full tup (-c)) doomed

let view_deletion view ~contents ~source ~key =
  let out = Delta.empty () in
  Bag.iter
    (fun tup c ->
      if Tuple.equal (view_tuple_key view source tup) key then
        Delta.add out tup (-c))
    contents;
  out

let add_answer view ~working full =
  let last = View_def.n_sources view - 1 in
  Delta.iter
    (fun tup c ->
      if c > 0 && not (Bag.mem working tup) then Bag.add working tup 1)
    (Algebra.select_project view { Partial.lo = 0; hi = last; data = full })

let install (ctx : Algorithm.ctx) ~working ~txns =
  let d = Bag.differ (ctx.view_contents ()) in
  Bag.iter
    (fun tup c ->
      Bag.visit d ~hash:(Tuple.hash tup) ~equal:(Tuple.equal tup)
        ~make:(fun () -> tup) c)
    working;
  ctx.install (Bag.finish d) ~txns
