type t = {
  view_name : string;
  schemas : Schema.t array;
  joins : Join_spec.t array;
  selection : Predicate.t;
  projection : int array;
  offsets : int array;
  total_width : int;
  (* junction k's equality columns, local to source k and to k + 1 *)
  keys : (int array * int array) array;
}

let make ~name ~schemas ~joins ?(selection = Predicate.True) ~projection () =
  let n = Array.length schemas in
  if n = 0 then invalid_arg "View_def.make: no sources";
  if Array.length joins <> n - 1 then
    invalid_arg "View_def.make: need exactly n-1 join specs";
  let offsets = Array.make n 0 in
  for i = 1 to n - 1 do
    offsets.(i) <- offsets.(i - 1) + Schema.arity schemas.(i - 1)
  done;
  let total_width = offsets.(n - 1) + Schema.arity schemas.(n - 1) in
  let in_range g = g >= 0 && g < total_width in
  let source_of g =
    let rec go i = if i + 1 < n && offsets.(i + 1) <= g then go (i + 1) else i in
    go 0
  in
  Array.iteri
    (fun i spec ->
      List.iter
        (fun (l, r) ->
          if not (in_range l && in_range r) then
            invalid_arg "View_def.make: join attr out of range";
          if source_of l <> i || source_of r <> i + 1 then
            invalid_arg
              (Printf.sprintf
                 "View_def.make: join %d must connect sources %d and %d" i i
                 (i + 1)))
        spec.Join_spec.equalities;
      let adjacent g = in_range g && (source_of g = i || source_of g = i + 1) in
      Option.iter
        (fun p ->
          if not (List.for_all adjacent (Predicate.attrs_used p)) then
            invalid_arg
              (Printf.sprintf
                 "View_def.make: join %d's residual must read sources %d and \
                  %d only"
                 i i (i + 1)))
        spec.Join_spec.residual)
    joins;
  Array.iter
    (fun g ->
      if not (in_range g) then
        invalid_arg "View_def.make: projection attr out of range")
    projection;
  List.iter
    (fun g ->
      if not (in_range g) then
        invalid_arg "View_def.make: selection attr out of range")
    (Predicate.attrs_used selection);
  let local pick (spec : Join_spec.t) ofs =
    Array.of_list (List.map (fun eq -> pick eq - ofs) spec.equalities)
  in
  let keys =
    Array.mapi
      (fun k spec ->
        (local fst spec offsets.(k), local snd spec offsets.(k + 1)))
      joins
  in
  { view_name = name; schemas; joins; selection; projection; offsets;
    total_width; keys }

let name v = v.view_name
let n_sources v = Array.length v.schemas
let schemas v = v.schemas
let schema v i = v.schemas.(i)
let joins v = v.joins
let join_between v i = v.joins.(i)
let selection v = v.selection
let projection v = v.projection
let offset v i = v.offsets.(i)
let width v i = Schema.arity v.schemas.(i)
let total_width v = v.total_width

let source_of_global v g =
  if g < 0 || g >= v.total_width then invalid_arg "source_of_global";
  let rec go i =
    if i + 1 < Array.length v.offsets && v.offsets.(i + 1) <= g then go (i + 1)
    else i
  in
  go 0

let global v i a = v.offsets.(i) + a

let junction_key v k = v.keys.(k)

let join_columns v id =
  (if id > 0 then Array.to_list (snd v.keys.(id - 1)) else [])
  @ if id < Array.length v.keys then Array.to_list (fst v.keys.(id)) else []

let global_by_name v i name = global v i (Schema.index_of v.schemas.(i) name)

let view_key_positions v i =
  let keys = Schema.key_indices v.schemas.(i) in
  List.map
    (fun a ->
      let g = global v i a in
      let rec find p =
        if p >= Array.length v.projection then
          raise Not_found (* lint: allow L4 documented contract in view_def.mli; includes_all_keys catches it *)
        else if v.projection.(p) = g then p
        else find (p + 1)
      in
      find 0)
    keys

let includes_all_keys v =
  let ok = ref true in
  for i = 0 to n_sources v - 1 do
    (match view_key_positions v i with
    | [] -> ok := false (* a relation without a declared key has no key *)
    | _ :: _ -> ()
    | exception Not_found -> ok := false)
  done;
  !ok

let pp ppf v =
  Format.fprintf ppf "@[<v>view %s:@," v.view_name;
  Array.iteri
    (fun i s -> Format.fprintf ppf "  source %d: %a@," i Schema.pp s)
    v.schemas;
  Array.iteri
    (fun i j -> Format.fprintf ppf "  join %d⋈%d: %a@," i (i + 1) Join_spec.pp j)
    v.joins;
  Format.fprintf ppf "  select: %a@," Predicate.pp v.selection;
  Format.fprintf ppf "  project: [%s]@]"
    (String.concat "; "
       (Array.to_list (Array.map string_of_int v.projection)))
