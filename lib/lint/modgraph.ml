(* Phase-1 repo model for the cross-module rules. See modgraph.mli for
   the contract. Everything here is deliberately syntactic: the model
   over-approximates (a pragma with a reason settles the argument) and
   the arity guard keeps the one systematic false positive — partial
   applications like [let encode = Codec.encode put] — out. *)

open Parsetree

type mutable_value = {
  mv_name : string;
  mv_line : int;
  mv_col : int;
  mv_reason : string;
}

type hot_effect = {
  he_line : int;
  he_col : int;
  he_effect : string;
  he_def : string;
  he_chain : string;
}

(* One definition-level [let]. [arity] counts required (non-optional)
   peeled parameters; 0 means a plain value. [mut] is the fixpoint
   verdict: Some reason when the value / fully-applied result holds
   freshly created mutable structure. *)
type def = {
  d_unit : string;
  d_file : string;
  d_name : string;
  d_line : int;
  d_col : int;
  mutable d_arity : int;
  d_atoms : atom list;  (* return-position summary, see below *)
  d_refs : (string * string) list;  (* resolved (unit, def) references *)
  d_effects : (int * int * string) list;  (* line, col, primitive *)
  mutable d_mut : string option;
}

(* What a definition returns, reduced to the cases the fixpoint can act
   on. [Direct] is mutable structure created right here; [Call]/[Alias]
   defer to another indexed definition; [Prim_alias] is a bare reference
   to a stdlib creator ([let mk = Hashtbl.create]). *)
and atom =
  | Direct of string
  | Call of (string * string) * int  (* target, required args supplied *)
  | Alias of (string * string)
  | Prim_alias of string * int  (* reason, creator arity *)

type t = {
  defs : def list;
  (* resolution index: (unit, name) -> def (first definition wins) *)
  by_name : (string * string, def) Hashtbl.t;
  mutable reach : ((string * string, string) Hashtbl.t) option;
      (* handler reachability: def -> " -> "-joined chain from its root;
         computed lazily, shared by every per-file L8 query *)
}

let norm_path file = String.concat "/" (String.split_on_char '\\' file)

let in_lib file =
  let f = norm_path file in
  String.length f >= 4 && (String.sub f 0 4 = "lib/" || (
    let rec go i =
      i + 5 <= String.length f && (String.sub f i 5 = "/lib/" || go (i + 1))
    in
    go 0))

let in_observability file =
  let f = norm_path file in
  let needle = "lib/observability/" in
  let n = String.length needle and h = String.length f in
  let rec go i = i + n <= h && (String.sub f i n = needle || go (i + 1)) in
  go 0

let unit_name_of_file file =
  let base = Filename.remove_extension (Filename.basename (norm_path file)) in
  String.capitalize_ascii base

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum
let col_of (loc : Location.t) =
  loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol

let path_of (lid : Longident.t) =
  match Longident.flatten lid with exception _ -> [] | parts -> parts

(* ————— shared structure walks (local copies: Rules depends on us) ————— *)

let rec binding_name (p : pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> binding_name p
  | _ -> None

let rec structure_bindings (str : structure) =
  List.concat_map item_bindings str

and item_bindings (it : structure_item) =
  match it.pstr_desc with
  | Pstr_value (_, vbs) -> vbs
  | Pstr_module mb -> module_expr_bindings mb.pmb_expr
  | Pstr_recmodule mbs ->
      List.concat_map (fun mb -> module_expr_bindings mb.pmb_expr) mbs
  | Pstr_include i -> module_expr_bindings i.pincl_mod
  | _ -> []

and module_expr_bindings (me : module_expr) =
  match me.pmod_desc with
  | Pmod_structure s -> structure_bindings s
  | Pmod_functor (_, body) -> module_expr_bindings body
  | Pmod_apply (f, arg) -> module_expr_bindings f @ module_expr_bindings arg
  | Pmod_constraint (me, _) -> module_expr_bindings me
  | _ -> []

(* ————— stdlib mutable-structure creators ————— *)

(* (path, required arity). Fully applying any of these yields a
   structure whose sharing across domains races. *)
let prim_creator = function
  | [ "ref" ] -> Some ("ref cell", 1)
  | [ "Hashtbl"; ("create" | "copy" | "of_seq") ] -> Some ("Hashtbl", 1)
  | [ "Buffer"; "create" ] -> Some ("Buffer", 1)
  | [ "Queue"; ("create" | "copy" | "of_seq") ] -> Some ("Queue", 1)
  | [ "Stack"; ("create" | "copy" | "of_seq") ] -> Some ("Stack", 1)
  | [ "Atomic"; "make" ] -> Some ("Atomic", 1)
  | [ "Weak"; "create" ] -> Some ("Weak array", 1)
  | [ "Bytes"; ("create" | "of_string" | "copy") ] -> Some ("Bytes", 1)
  | [ "Bytes"; ("make" | "init") ] -> Some ("Bytes", 2)
  | [ "Bytes"; "sub" ] -> Some ("Bytes", 3)
  | [ "Array"; ("create_float" | "of_list" | "of_seq" | "copy" | "concat") ]
    ->
      Some ("array", 1)
  | [ "Array"; ("make" | "init" | "append" | "map" | "mapi") ] ->
      Some ("array", 2)
  | [ "Array"; ("sub" | "make_matrix") ] -> Some ("array", 3)
  | _ -> None

(* ————— direct I/O and wall-clock primitives (L8 feed) ————— *)

let effect_prim = function
  | [ ( "print_string" | "print_char" | "print_int" | "print_float"
      | "print_endline" | "print_newline" | "prerr_string" | "prerr_char"
      | "prerr_endline" | "prerr_newline" | "output_string" | "output_char"
      | "output_byte" | "output_bytes" | "output_value" | "stdout"
      | "stderr" | "read_line" | "input_line" | "open_in" | "open_in_bin"
      | "open_out" | "open_out_bin" ) as p ] ->
      Some p
  | [ "Printf"; (("printf" | "eprintf") as p) ] -> Some ("Printf." ^ p)
  | [ "Format";
      (( "printf" | "eprintf" | "print_string" | "print_newline"
       | "std_formatter" | "err_formatter" ) as p) ] ->
      Some ("Format." ^ p)
  | [ "Unix"; (("gettimeofday" | "time") as p) ] -> Some ("Unix." ^ p)
  | [ "Sys"; (("time" | "command") as p) ] -> Some ("Sys." ^ p)
  | _ -> None

(* ————— build ————— *)

module SSet = Set.Make (String)

(* Count required (non-optional) parameters an application supplies. *)
let supplied_args args =
  List.length
    (List.filter
       (fun (lbl, _) ->
         match lbl with Asttypes.Optional _ -> false | _ -> true)
       args)

(* Peel the leading [fun]/[function] layers off a binding's rhs:
   required arity plus the body expressions results flow out of. *)
let rec peel e =
  match e.pexp_desc with
  | Pexp_fun (lbl, _, _, body) ->
      let a, bodies = peel body in
      ((match lbl with Asttypes.Optional _ -> a | _ -> a + 1), bodies)
  | Pexp_function cases -> (1, List.map (fun c -> c.pc_rhs) cases)
  | Pexp_newtype (_, body) -> peel body
  | Pexp_constraint (e, _) -> peel e
  | _ -> (0, [ e ])

let build units =
  let unit_names =
    List.fold_left
      (fun acc (file, _) -> SSet.add (unit_name_of_file file) acc)
      SSet.empty units
  in
  (* local [module X = Path] aliases, per unit *)
  let aliases : (string, (string, string) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let resolve_module_path parts =
    (* rightmost path component that names a known unit *)
    List.fold_left
      (fun acc p -> if SSet.mem p unit_names then Some p else acc)
      None parts
  in
  List.iter
    (fun (file, str) ->
      let u = unit_name_of_file file in
      let tbl = Hashtbl.create 4 in
      List.iter
        (fun it ->
          match it.pstr_desc with
          | Pstr_module
              { pmb_name = { txt = Some alias; _ };
                pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ };
                _ } -> (
              match resolve_module_path (path_of txt) with
              | Some target -> Hashtbl.replace tbl alias target
              | None -> ())
          | _ -> ())
        str;
      Hashtbl.replace aliases u tbl)
    units;
  (* record labels declared [mutable], scoped per declaring unit: label
     names repeat across modules with different mutability (Fault's
     immutable [wh_crashes] list vs Metrics' mutable counter), so a
     record literal only counts when the label is mutable in the
     literal's own unit, or in the unit a qualified label names. *)
  let mutable_labels : (string, SSet.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (file, str) ->
      let u = unit_name_of_file file in
      let acc = ref SSet.empty in
      let it =
        { Ast_iterator.default_iterator with
          type_declaration =
            (fun self td ->
              (match td.ptype_kind with
              | Ptype_record labels ->
                  List.iter
                    (fun ld ->
                      if ld.pld_mutable = Asttypes.Mutable then
                        acc := SSet.add ld.pld_name.txt !acc)
                    labels
              | _ -> ());
              Ast_iterator.default_iterator.type_declaration self td) }
      in
      it.structure it str;
      Hashtbl.replace mutable_labels u !acc)
    units;
  let mutable_label u parts =
    match List.rev parts with
    | [] -> false
    | lbl :: rev_mods ->
        let owner =
          if rev_mods = [] then Some u
          else
            let local = Hashtbl.find_opt aliases u in
            List.fold_left
              (fun acc p ->
                match acc with
                | Some _ -> acc
                | None ->
                    if SSet.mem p unit_names then Some p
                    else
                      Option.bind local (fun tbl -> Hashtbl.find_opt tbl p))
              None rev_mods
        in
        (match owner with
        | Some ou -> (
            match Hashtbl.find_opt mutable_labels ou with
            | Some set -> SSet.mem lbl set
            | None -> false)
        | None -> false)
  in
  (* names defined at definition level, per unit, for Lident resolution *)
  let def_names : (string, SSet.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (file, str) ->
      let u = unit_name_of_file file in
      let names =
        List.fold_left
          (fun acc vb ->
            match binding_name vb.pvb_pat with
            | Some n -> SSet.add n acc
            | None -> acc)
          SSet.empty (structure_bindings str)
      in
      Hashtbl.replace def_names u names)
    units;
  (* resolve a dotted reference made from unit [u] *)
  let resolve u parts =
    match parts with
    | [] -> None
    | [ n ] ->
        (match Hashtbl.find_opt def_names u with
        | Some names when SSet.mem n names -> Some (u, n)
        | _ -> None)
    | _ -> (
        let value = List.nth parts (List.length parts - 1) in
        let modpath = List.filteri (fun i _ -> i < List.length parts - 1) parts in
        let local = Hashtbl.find_opt aliases u in
        let target =
          List.fold_left
            (fun acc p ->
              if SSet.mem p unit_names then Some p
              else
                match local with
                | Some tbl -> (
                    match Hashtbl.find_opt tbl p with
                    | Some t -> Some t
                    | None -> acc)
                | None -> acc)
            None modpath
        in
        match target with
        | Some tu -> Some (tu, value)
        | None -> None)
  in
  (* per-definition summaries *)
  let defs = ref [] in
  List.iter
    (fun (file, str) ->
      let u = unit_name_of_file file in
      List.iter
        (fun vb ->
          match binding_name vb.pvb_pat with
          | None -> ()
          | Some name ->
              let arity, bodies = peel vb.pvb_expr in
              (* return-position atoms, through local lets *)
              let rec atoms env e =
                match e.pexp_desc with
                | Pexp_let (_, vbs, body) ->
                    let env =
                      List.fold_left
                        (fun env vb ->
                          match binding_name vb.pvb_pat with
                          | Some n -> (n, atoms env vb.pvb_expr) :: env
                          | None -> env)
                        env vbs
                    in
                    atoms env body
                | Pexp_sequence (_, b) -> atoms env b
                | Pexp_ifthenelse (_, t, eo) ->
                    atoms env t
                    @ (match eo with Some e -> atoms env e | None -> [])
                | Pexp_match (_, cases) | Pexp_try (_, cases) ->
                    List.concat_map (fun c -> atoms env c.pc_rhs) cases
                | Pexp_open (_, e)
                | Pexp_constraint (e, _)
                | Pexp_coerce (e, _, _)
                | Pexp_letmodule (_, _, e)
                | Pexp_letexception (_, e) ->
                    atoms env e
                | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> []
                | Pexp_ident { txt = Longident.Lident x; _ }
                  when List.mem_assoc x env ->
                    List.assoc x env
                | Pexp_ident { txt; _ } -> (
                    let parts = path_of txt in
                    match prim_creator parts with
                    | Some (reason, a) -> [ Prim_alias (reason, a) ]
                    | None -> (
                        match resolve u parts with
                        | Some target -> [ Alias target ]
                        | None -> []))
                | Pexp_apply (f, args) -> (
                    let n = supplied_args args in
                    let via_atoms f_atoms =
                      List.concat_map
                        (function
                          | Prim_alias (reason, a) when n >= a ->
                              [ Direct reason ]
                          | Alias target -> [ Call (target, n) ]
                          | _ -> [])
                        f_atoms
                    in
                    match f.pexp_desc with
                    | Pexp_ident { txt = Longident.Lident x; _ }
                      when List.mem_assoc x env ->
                        via_atoms (List.assoc x env)
                    | Pexp_ident { txt; _ } -> (
                        let parts = path_of txt in
                        match prim_creator parts with
                        | Some (reason, a) when n >= a -> [ Direct reason ]
                        | Some _ -> []
                        | None -> (
                            match resolve u parts with
                            | Some target -> [ Call (target, n) ]
                            | None -> []))
                    | _ -> [])
                | Pexp_tuple es -> List.concat_map (atoms env) es
                | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) ->
                    atoms env e
                | Pexp_array [] -> []
                | Pexp_array _ -> [ Direct "array literal" ]
                | Pexp_lazy _ -> [ Direct "lazy thunk" ]
                | Pexp_record (fields, base) ->
                    let own =
                      List.filter_map
                        (fun ({ Location.txt; _ }, _) ->
                          let parts = path_of txt in
                          match List.rev parts with
                          | lbl :: _ when mutable_label u parts ->
                              Some (Direct ("mutable field `" ^ lbl ^ "`"))
                          | _ -> None)
                        fields
                    in
                    own
                    @ List.concat_map (fun (_, v) -> atoms env v) fields
                    @ (match base with Some b -> atoms env b | None -> [])
                | _ -> []
              in
              let d_atoms = List.concat_map (atoms []) bodies in
              (* whole-body references and effect sites *)
              let refs = ref [] in
              let effects = ref [] in
              let seen_refs = Hashtbl.create 16 in
              let it =
                { Ast_iterator.default_iterator with
                  expr =
                    (fun self e ->
                      (match e.pexp_desc with
                      | Pexp_ident { txt; loc } -> (
                          let parts = path_of txt in
                          (match effect_prim parts with
                          | Some p ->
                              effects :=
                                (line_of loc, col_of loc, p) :: !effects
                          | None -> ());
                          match resolve u parts with
                          | Some target ->
                              if not (Hashtbl.mem seen_refs target) then begin
                                Hashtbl.replace seen_refs target ();
                                refs := target :: !refs
                              end
                          | None -> ())
                      | _ -> ());
                      Ast_iterator.default_iterator.expr self e) }
              in
              it.expr it vb.pvb_expr;
              let loc = vb.pvb_pat.ppat_loc in
              defs :=
                { d_unit = u;
                  d_file = file;
                  d_name = name;
                  d_line = line_of loc;
                  d_col = col_of loc;
                  d_arity = arity;
                  d_atoms;
                  d_refs = List.rev !refs;
                  d_effects = List.rev !effects;
                  d_mut = None }
                :: !defs)
        (structure_bindings str))
    units;
  let defs = List.rev !defs in
  let by_name = Hashtbl.create 256 in
  List.iter
    (fun d ->
      if not (Hashtbl.mem by_name (d.d_unit, d.d_name)) then
        Hashtbl.replace by_name (d.d_unit, d.d_name) d)
    defs;
  (* ————— mutability fixpoint ————— *)
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 64 do
    changed := false;
    incr rounds;
    List.iter
      (fun d ->
        (* arity through bare-alias chains: [let create = Bag.create] *)
        (if d.d_arity = 0 then
           match d.d_atoms with
           | [ Alias target ] -> (
               match Hashtbl.find_opt by_name target with
               | Some t when t.d_arity > 0 ->
                   d.d_arity <- t.d_arity;
                   changed := true
               | _ -> ())
           | [ Prim_alias (_, a) ] ->
               d.d_arity <- a;
               changed := true
           | _ -> ());
        if d.d_mut = None then
          let verdict =
            List.fold_left
              (fun acc atom ->
                match acc with
                | Some _ -> acc
                | None -> (
                    match atom with
                    | Direct reason -> Some reason
                    | Prim_alias (reason, _) -> Some reason
                    | Alias target -> (
                        match Hashtbl.find_opt by_name target with
                        | Some t when t.d_mut <> None ->
                            Some
                              (Printf.sprintf "alias of %s.%s (%s)"
                                 (fst target) (snd target)
                                 (Option.get t.d_mut))
                        | _ -> None)
                    | Call (target, n) -> (
                        match Hashtbl.find_opt by_name target with
                        | Some t
                          when t.d_mut <> None && t.d_arity > 0
                               && n >= t.d_arity ->
                            Some
                              (Printf.sprintf "call to %s.%s (%s)"
                                 (fst target) (snd target)
                                 (Option.get t.d_mut))
                        | _ -> None)))
              None d.d_atoms
          in
          match verdict with
          | Some _ ->
              d.d_mut <- verdict;
              changed := true
          | None -> ())
      defs
  done;
  { defs; by_name; reach = None }

(* ————— queries ————— *)

let mutable_values t ~file =
  let file = norm_path file in
  List.filter_map
    (fun d ->
      if norm_path d.d_file = file && d.d_arity = 0 then
        match d.d_mut with
        | Some reason ->
            Some
              { mv_name = d.d_name; mv_line = d.d_line; mv_col = d.d_col;
                mv_reason = reason }
        | None -> None
      else None)
    t.defs

let handler_names = [ "on_update"; "on_answer"; "on_source_down"; "on_source_up" ]

(* BFS from every handler definition under lib/, recording a call chain
   per visited definition. The walk refuses to enter lib/observability/:
   effects routed through Obs are the sanctioned path. *)
let reachability t =
  match t.reach with
  | Some r -> r
  | None ->
      let chains : (string * string, string) Hashtbl.t = Hashtbl.create 256 in
      let queue = Queue.create () in
      List.iter
        (fun d ->
          if List.mem d.d_name handler_names && in_lib d.d_file then begin
            let key = (d.d_unit, d.d_name) in
            if not (Hashtbl.mem chains key) then begin
              Hashtbl.replace chains key (d.d_unit ^ "." ^ d.d_name);
              Queue.add d queue
            end
          end)
        t.defs;
      while not (Queue.is_empty queue) do
        let d = Queue.pop queue in
        let chain = Hashtbl.find chains (d.d_unit, d.d_name) in
        List.iter
          (fun target ->
            match Hashtbl.find_opt t.by_name target with
            | Some next
              when (not (Hashtbl.mem chains target))
                   && not (in_observability next.d_file) ->
                Hashtbl.replace chains target
                  (chain ^ " -> " ^ next.d_unit ^ "." ^ next.d_name);
                Queue.add next queue
            | _ -> ())
          d.d_refs
      done;
      t.reach <- Some chains;
      chains

let hot_path_effects t ~file =
  let file = norm_path file in
  let chains = reachability t in
  let out = ref [] in
  List.iter
    (fun d ->
      if norm_path d.d_file = file && in_lib d.d_file
         && not (in_observability d.d_file)
      then
        match Hashtbl.find_opt chains (d.d_unit, d.d_name) with
        | Some chain ->
            List.iter
              (fun (line, col, prim) ->
                out :=
                  { he_line = line; he_col = col; he_effect = prim;
                    he_def = d.d_unit ^ "." ^ d.d_name; he_chain = chain }
                  :: !out)
              d.d_effects
        | None -> ())
    t.defs;
  List.sort
    (fun a b -> compare (a.he_line, a.he_col) (b.he_line, b.he_col))
    (List.rev !out)
