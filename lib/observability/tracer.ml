(* Structured tracing: typed, causally linked spans and events.

   A span is an interval of simulated time with a name, attributes, a
   parent span and an ordered set of children/events — one span tree per
   update transaction at the warehouse (notice → sweep legs →
   compensation → install). Events are instants attached to a span (or to
   the root). Everything is recorded append-only and rendered
   deterministically, so a seeded run pins a byte-identical tree. *)

type id = int

let none : id = 0

type attr = I of int | F of float | S of string | B of bool

type span = {
  id : id;
  parent : id;
  name : string;
  start_time : float;
  mutable end_time : float;  (* NaN while open *)
  attrs : (string * attr) list;
  mutable rev_children : id list;
  mutable rev_events : event list;
}

and event = { at : float; ev_name : string; ev_attrs : (string * attr) list }

type t = {
  spans : (id, span) Hashtbl.t;
  mutable rev_roots : id list;
  mutable rev_root_events : event list;
  mutable next_id : int;
}

let create () =
  { spans = Hashtbl.create 64; rev_roots = []; rev_root_events = [];
    next_id = 1 }

let span_count t = Hashtbl.length t.spans

let start t ~time ?(parent = none) ~name ?(attrs = []) () =
  let id = t.next_id in
  t.next_id <- id + 1;
  let s =
    { id; parent; name; start_time = time; end_time = Float.nan; attrs;
      rev_children = []; rev_events = [] }
  in
  Hashtbl.replace t.spans id s;
  (match Hashtbl.find_opt t.spans parent with
  | Some p -> p.rev_children <- id :: p.rev_children
  | None -> t.rev_roots <- id :: t.rev_roots);
  id

let finish t ~time id =
  if id <> none then
    match Hashtbl.find_opt t.spans id with
    | None -> ()
    | Some s -> if Float.is_nan s.end_time then s.end_time <- time

let event t ~time ?(span = none) ~name ?(attrs = []) () =
  let ev = { at = time; ev_name = name; ev_attrs = attrs } in
  match Hashtbl.find_opt t.spans span with
  | Some s -> s.rev_events <- ev :: s.rev_events
  | None -> t.rev_root_events <- ev :: t.rev_root_events

let roots t = List.rev t.rev_roots

(* ————— rendering ————— *)

let fmt_attr = function
  | I i -> string_of_int i
  | F f -> Printf.sprintf "%.3f" f
  | S s -> s
  | B b -> if b then "true" else "false"

let fmt_attrs attrs =
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k (fmt_attr v)) attrs)

let fmt_span_head s =
  let fin =
    if Float.is_nan s.end_time then "…" else Printf.sprintf "%.3f" s.end_time
  in
  Printf.sprintf "[%.3f..%s] %s%s" s.start_time fin s.name (fmt_attrs s.attrs)

(* Deterministic layout: under each span, its events (emission order)
   first, then its child spans in creation order — stable under time
   ties, unlike sorting on float timestamps. *)
let render t =
  let buf = Buffer.create 512 in
  let rec walk indent id =
    match Hashtbl.find_opt t.spans id with
    | None -> ()
    | Some s ->
        Buffer.add_string buf indent;
        Buffer.add_string buf (fmt_span_head s);
        Buffer.add_char buf '\n';
        List.iter
          (fun ev ->
            Buffer.add_string buf indent;
            Buffer.add_string buf
              (Printf.sprintf "  @%.3f %s%s\n" ev.at ev.ev_name
                 (fmt_attrs ev.ev_attrs)))
          (List.rev s.rev_events);
        List.iter (walk (indent ^ "  ")) (List.rev s.rev_children)
  in
  List.iter
    (fun ev ->
      Buffer.add_string buf
        (Printf.sprintf "@%.3f %s%s\n" ev.at ev.ev_name (fmt_attrs ev.ev_attrs)))
    (List.rev t.rev_root_events);
  List.iter (walk "") (roots t);
  Buffer.contents buf

(* ————— JSON export ————— *)

let attr_json = function
  | I i -> Jsonw.Int i
  | F f -> Jsonw.Float f
  | S s -> Jsonw.String s
  | B b -> Jsonw.Bool b

let attrs_json attrs = Jsonw.Obj (List.map (fun (k, v) -> (k, attr_json v)) attrs)

let event_json ev =
  Jsonw.obj
    (("at", Jsonw.float ev.at) :: ("name", Jsonw.str ev.ev_name)
    ::
    (match ev.ev_attrs with
    | [] -> []
    | attrs -> [ ("attrs", attrs_json attrs) ]))

let to_json t =
  let span_json s =
    Jsonw.obj
      ([ ("id", Jsonw.int s.id); ("parent", Jsonw.int s.parent);
         ("name", Jsonw.str s.name); ("start", Jsonw.float s.start_time) ]
      @ (if Float.is_nan s.end_time then []
         else [ ("end", Jsonw.float s.end_time) ])
      @ (match s.attrs with
        | [] -> []
        | attrs -> [ ("attrs", attrs_json attrs) ])
      @
      match s.rev_events with
      | [] -> []
      | evs -> [ ("events", Jsonw.list (List.rev_map event_json evs)) ])
  in
  let all =
    Hashtbl.fold (fun _ s acc -> s :: acc) t.spans []
    |> List.sort (fun a b -> Int.compare a.id b.id)
  in
  Jsonw.obj
    [ ("spans", Jsonw.list (List.map span_json all));
      ("events", Jsonw.list (List.rev_map event_json t.rev_root_events)) ]
