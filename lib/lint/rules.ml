(* The invariant rules. L1–L4 are per-file [Ast_iterator] walks over one
   compilation unit's Parsetree; L7–L9 are cross-module, driven by the
   phase-1 [Modgraph] shared across the run. See DESIGN.md §11/§16 for
   the mapping from rule to paper/design invariant.

   The rules are deliberately syntactic: they over-approximate (a pragma
   with a reason settles the argument) rather than miss the systematic
   bug classes this repo has already paid for — PR 4's O(n²) appends, the
   Strobe/ECA anomaly family, and the shared-module-state races that
   would sink the sharded OCaml-domains engine (ROADMAP item 3). L5 and
   L6 are retired: snapshot completeness is a compile error (closed
   record patterns under warning 9), and the scan L6 flagged,
   [Algebra.extend], is gone (DESIGN.md §11). *)

open Parsetree

type ctx = { file : string; has_mli : bool; graph : Modgraph.t }

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

let col_of (loc : Location.t) =
  loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol

let finding ctx ~loc ~rule ~severity ~message ~hint =
  { Finding.file = ctx.file; line = line_of loc; col = col_of loc; rule;
    severity; message; hint }

let path_of (lid : Longident.t) =
  match Longident.flatten lid with exception _ -> [] | parts -> parts

let dotted lid = String.concat "." (path_of lid)

let norm_path file = String.concat "/" (String.split_on_char '\\' file)

(* ————— shared structure walks ————— *)

(* Every value binding in the unit at definition level: toplevel [let]s
   plus those inside (nested) modules, functor bodies and functor
   arguments — but NOT [let]s nested inside expressions, so each returned
   binding is an analysis scope of its own. *)
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
  | Pmod_apply (f, arg) ->
      module_expr_bindings f @ module_expr_bindings arg
  | Pmod_constraint (me, _) -> module_expr_bindings me
  | _ -> []

(* Iterate [f] over every expression in a subtree. *)
let iter_exprs f node_iter node =
  let it =
    { Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          f e;
          Ast_iterator.default_iterator.expr self e) }
  in
  node_iter it node

let iter_exprs_in_expr f e = iter_exprs f (fun it e -> it.expr it e) e

(* ————— L1 · determinism ————— *)

(* The paper's replayable event order (§4) and PR 2's deterministic
   restart both assume a seeded run is bit-replayable. Ambient
   randomness and wall-clock reads are the two ways OCaml code breaks
   that silently. *)
let l1 ctx (str : structure) =
  let out = ref [] in
  let rng_owner = String.ends_with ~suffix:"lib/sim/rng.ml" (norm_path ctx.file) in
  iter_exprs
    (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; loc } -> (
          match path_of txt with
          | "Random" :: _ when not rng_owner ->
              out :=
                finding ctx ~loc ~rule:"L1" ~severity:Finding.Error
                  ~message:
                    (Printf.sprintf
                       "%s: ambient randomness outside lib/sim/rng.ml \
                        breaks seeded replay"
                       (dotted txt))
                  ~hint:
                    "thread a seeded Repro_sim.Rng (Rng.split the run's \
                     root) instead of the global Random state"
                :: !out
          | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] ->
              out :=
                finding ctx ~loc ~rule:"L1" ~severity:Finding.Error
                  ~message:
                    (Printf.sprintf
                       "%s: wall-clock read; seeded runs must depend only \
                        on virtual time"
                       (dotted txt))
                  ~hint:
                    "use the engine's virtual clock, or route through one \
                     allow-listed wall-metrics helper carrying a `(* lint: \
                     allow L1 ... *)` pragma"
                :: !out
          | [ "Hashtbl"; (("hash_param" | "randomize") as fn) ] ->
              out :=
                finding ctx ~loc ~rule:"L1" ~severity:Finding.Error
                  ~message:
                    (Printf.sprintf
                       "Hashtbl.%s: nondeterministic hashing; table \
                        iteration order would differ across runs"
                       fn)
                  ~hint:
                    "use the default Hashtbl.hash; canonical orders come \
                     from explicit sorts, never from bucket layout"
                :: !out
          | _ -> ())
      | Pexp_apply
          ( { pexp_desc =
                Pexp_ident
                  { txt = Longident.Ldot (Longident.Lident "Hashtbl", "create");
                    _ };
              _ },
            args ) ->
          List.iter
            (fun (lbl, arg) ->
              match (lbl, arg.pexp_desc) with
              | ( Asttypes.Labelled "random",
                  Pexp_construct
                    ({ txt = Longident.Lident "false"; _ }, None) ) ->
                  ()
              | Asttypes.Labelled "random", _ ->
                  out :=
                    finding ctx ~loc:arg.pexp_loc ~rule:"L1"
                      ~severity:Finding.Error
                      ~message:
                        "Hashtbl.create ~random: per-process seeded bucket \
                         order breaks replay and canonical encodings"
                      ~hint:
                        "drop ~random (the repo's encodings sort \
                         explicitly, so flooding resistance buys nothing \
                         here)"
                    :: !out
              | _ -> ())
            args
      | _ -> ())
    (fun it s -> it.structure it s)
    str;
  List.rev !out

(* ————— L2 · iteration order ————— *)

(* PR 2's crash-recovery argument needs byte-identical snapshots for
   equal states; Hashtbl iteration order is arbitrary, so anything it
   feeds into a Snap/Codec/Checkpoint/Jsonw encoding must pass through an
   explicit sort. Granularity is the definition-level binding: a binding
   that (transitively, syntactically) builds an encoding, touches
   Hashtbl.fold/iter and never sorts is flagged at each Hashtbl site. *)
let l2 ctx (str : structure) =
  let out = ref [] in
  let encoders = [ "Snap"; "Codec"; "Checkpoint"; "Jsonw" ] in
  List.iter
    (fun vb ->
      let sites = ref [] in
      let sorts = ref false in
      let encodes = ref false in
      let note_path loc = function
        | [ "Hashtbl"; ("fold" | "iter") ] -> sites := loc :: !sites
        | [ "List"; ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") ] ->
            sorts := true
        | parts ->
            if List.exists (fun p -> List.mem p encoders) parts then
              encodes := true
      in
      iter_exprs_in_expr
        (fun e ->
          match e.pexp_desc with
          | Pexp_ident { txt; loc } -> note_path loc (path_of txt)
          | Pexp_construct ({ txt; loc }, _) -> note_path loc (path_of txt)
          | _ -> ())
        vb.pvb_expr;
      if !encodes && not !sorts then
        List.iter
          (fun loc ->
            out :=
              finding ctx ~loc ~rule:"L2" ~severity:Finding.Error
                ~message:
                  "Hashtbl iteration order flows into a snapshot/encoding \
                   without a List.sort; equal states would encode \
                   differently across runs"
                ~hint:
                  "sort the folded list on a canonical key before encoding \
                   (see Sweep_global.extra_snapshot), or pragma the site if \
                   order provably cannot reach the encoding"
              :: !out)
          (List.rev !sites))
    (structure_bindings str);
  List.rev !out

(* ————— L3 · quadratic patterns ————— *)

let is_literal_list e =
  let rec go e =
    match e.pexp_desc with
    | Pexp_construct ({ txt = Longident.Lident "[]"; _ }, None) -> true
    | Pexp_construct
        ( { txt = Longident.Lident "::"; _ },
          Some { pexp_desc = Pexp_tuple [ _; tl ]; _ } ) ->
        go tl
    | _ -> false
  in
  go e

(* Locations of [e @ [x; ...]] (append of a literal list) in a subtree. *)
let literal_appends rhs =
  let out = ref [] in
  iter_exprs_in_expr
    (fun e ->
      match e.pexp_desc with
      | Pexp_apply
          ( { pexp_desc = Pexp_ident { txt = Longident.Lident "@"; _ }; _ },
            [ _; (_, r) ] )
        when is_literal_list r ->
          out := e.pexp_loc :: !out
      | _ -> ())
    rhs;
  List.rev !out

let is_length_app e =
  match e.pexp_desc with
  | Pexp_apply
      ( { pexp_desc =
            Pexp_ident
              { txt = Longident.Ldot (Longident.Lident "List", "length"); _ };
          _ },
        _ ) ->
      true
  | _ -> false

(* The exact PR-4 bug class: [l @ [x]] re-walks the whole list on every
   append, so accumulating into a mutable cell this way is O(n²) over a
   run; ditto re-measuring a list with [List.length] on every iteration
   of a loop. *)
let l3 ctx (str : structure) =
  let out = ref [] in
  let flag_appends rhs =
    List.iter
      (fun loc ->
        out :=
          finding ctx ~loc ~rule:"L3" ~severity:Finding.Error
            ~message:
              "list append `l @ [x]` stored back into a mutable cell: O(n) \
               per append, O(n²) over the run"
            ~hint:
              "accumulate with `x :: rev_acc` and reverse at the boundary, \
               or use a two-list deque (see Update_queue); keep checkpoint \
               encodings in delivery order by reversing at snapshot time"
          :: !out)
      (literal_appends rhs)
  in
  let in_hot = ref false in
  let default = Ast_iterator.default_iterator in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_setfield (_, _, rhs) -> flag_appends rhs
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident ":="; _ }; _ },
          [ _; (_, rhs) ] ) ->
        flag_appends rhs
    | Pexp_apply
        ( { pexp_desc =
              Pexp_ident
                { txt = Longident.Ldot (Longident.Lident "Array", "set"); _ };
            _ },
          args ) -> (
        match List.rev args with
        | (_, rhs) :: _ -> flag_appends rhs
        | [] -> ())
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ },
          ([ _; _ ] as args) )
      when !in_hot
           && List.mem op [ "<"; "<="; ">"; ">="; "="; "<>" ]
           && List.exists (fun (_, a) -> is_length_app a) args ->
        out :=
          finding ctx ~loc:e.pexp_loc ~rule:"L3" ~severity:Finding.Warning
            ~message:
              (Printf.sprintf
                 "`List.length` compared with `%s` inside a recursive/loop \
                  context re-measures the list on every pass"
                 op)
            ~hint:
              "cache the length in a counter maintained with the list (see \
               Update_queue.len), or bound it structurally"
          :: !out
    | _ -> ());
    match e.pexp_desc with
    | Pexp_while _ | Pexp_for _ ->
        let saved = !in_hot in
        in_hot := true;
        default.expr self e;
        in_hot := saved
    | Pexp_let (Asttypes.Recursive, vbs, body) ->
        let saved = !in_hot in
        in_hot := true;
        List.iter (self.Ast_iterator.value_binding self) vbs;
        in_hot := saved;
        self.Ast_iterator.expr self body
    | _ -> default.expr self e
  in
  let structure_item self it =
    match it.pstr_desc with
    | Pstr_value (Asttypes.Recursive, vbs) ->
        let saved = !in_hot in
        in_hot := true;
        List.iter (self.Ast_iterator.value_binding self) vbs;
        in_hot := saved
    | _ -> default.structure_item self it
  in
  let it = { default with expr; structure_item } in
  it.structure it str;
  List.sort Finding.compare !out

(* ————— L4 · exception hygiene ————— *)

(* [e] re-raises the caught exception variable [v]? *)
let reraises v body =
  let found = ref false in
  iter_exprs_in_expr
    (fun e ->
      match e.pexp_desc with
      | Pexp_apply
          ( { pexp_desc =
                Pexp_ident { txt = Longident.Lident ("raise" | "raise_notrace"); _ };
              _ },
            args ) ->
          List.iter
            (fun (_, a) ->
              match a.pexp_desc with
              | Pexp_ident { txt = Longident.Lident v'; _ } when v' = v ->
                  found := true
              | _ -> ())
            args
      | _ -> ())
    body;
  !found

let l4 ctx (str : structure) =
  let out = ref [] in
  iter_exprs
    (fun e ->
      match e.pexp_desc with
      | Pexp_try (_, cases) ->
          List.iter
            (fun c ->
              match (c.pc_lhs.ppat_desc, c.pc_guard) with
              | Ppat_any, None ->
                  out :=
                    finding ctx ~loc:c.pc_lhs.ppat_loc ~rule:"L4"
                      ~severity:Finding.Error
                      ~message:
                        "`with _ ->` swallows every exception, including \
                         the consistency checker's and the engine's own \
                         invariant violations"
                      ~hint:
                        "match the specific exceptions this expression can \
                         raise; let the rest propagate"
                    :: !out
              | Ppat_var { txt = v; _ }, None when not (reraises v c.pc_rhs)
                ->
                  out :=
                    finding ctx ~loc:c.pc_lhs.ppat_loc ~rule:"L4"
                      ~severity:Finding.Error
                      ~message:
                        (Printf.sprintf
                           "`with %s ->` catches every exception and never \
                            re-raises it"
                           v)
                      ~hint:
                        "match the specific exceptions, or re-raise after \
                         the side effect"
                    :: !out
              | _ -> ())
            cases
      | Pexp_apply
          ( { pexp_desc =
                Pexp_ident { txt = Longident.Lident ("raise" | "raise_notrace"); _ };
              _ },
            [ ( _,
                { pexp_desc =
                    Pexp_construct
                      ({ txt = Longident.Lident (("Not_found" | "Exit") as exn); _ }, None);
                  pexp_loc = loc;
                  _ } ) ] )
        when ctx.has_mli ->
          out :=
            finding ctx ~loc ~rule:"L4" ~severity:Finding.Error
              ~message:
                (Printf.sprintf
                   "bare `raise %s` in a module with an exported interface: \
                    callers get a context-free exception"
                   exn)
              ~hint:
                "raise Invalid_argument naming the operation and the \
                 offending value (see Base_table.apply), or return an \
                 option; pragma only if the .mli documents the contract"
            :: !out
      | _ -> ())
    (fun it s -> it.structure it s)
    str;
  List.sort Finding.compare !out

(* ————— L7 · toplevel mutable state (cross-module) ————— *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let in_lib file =
  let f = norm_path file in
  String.starts_with ~prefix:"lib/" f || contains f "/lib/"

(* ROADMAP item 3's gate: once shards run on OCaml domains, every
   module-init mutable value in lib/ is state those domains share
   without an owner. The Modgraph mutability fixpoint finds them even
   when the creation hides behind repo-local constructors
   ([Bag.of_list], [Delta.insertion], a record whose field value is
   [Array.of_list ...]). Values that are genuinely write-once carry a
   pragma saying so. *)
let l7 ctx (_ : structure) =
  if not (in_lib ctx.file) then []
  else
    List.map
      (fun (mv : Modgraph.mutable_value) ->
        { Finding.file = ctx.file; line = mv.mv_line; col = mv.mv_col;
          rule = "L7"; severity = Finding.Error;
          message =
            Printf.sprintf
              "toplevel `%s` holds mutable structure (%s): module state \
               shared by every future domain/shard"
              mv.mv_name mv.mv_reason;
          hint =
            "make it per-instance state (a record field, or a `unit ->` \
             constructor the caller owns); if it is write-once and \
             read-only thereafter, say so with a `lint: allow L7` pragma" })
      (Modgraph.mutable_values ctx.graph ~file:ctx.file)

(* ————— L8 · hot-path effects (cross-module) ————— *)

(* The maintenance handlers are the per-update hot path and, under the
   simulator, the deterministic replay path: direct I/O or wall-clock
   reads reachable from them both cost latency and desynchronize
   replays. Observability goes through Obs, which the reachability walk
   therefore never enters. *)
let l8 ctx (_ : structure) =
  List.map
    (fun (he : Modgraph.hot_effect) ->
      { Finding.file = ctx.file; line = he.he_line; col = he.he_col;
        rule = "L8"; severity = Finding.Error;
        message =
          Printf.sprintf
            "%s in %s is reachable from a maintenance handler (%s): \
             direct I/O on the per-update hot path"
            he.he_effect he.he_def he.he_chain;
        hint =
          "route the effect through Repro_observability.Obs (spans, \
           counters, log buffers drained off the hot path), or pragma \
           the site if it provably never writes" })
    (Modgraph.hot_path_effects ctx.graph ~file:ctx.file)

(* ————— L9 · send-aliasing (copy-on-send) ————— *)

(* Known in-place mutators, keyed by their module-qualified path; the
   mutated operand is the first required argument unless a ~into label
   names it. Unqualified [:=], [incr]/[decr] and [<-] are handled
   structurally. *)
let mutator_target = function
  | [ "Hashtbl"; ("replace" | "add" | "remove" | "reset" | "clear"
                 | "filter_map_inplace") ]
  | [ "Queue"; ("push" | "add" | "pop" | "take" | "clear" | "transfer") ]
  | [ "Stack"; ("push" | "pop" | "clear") ]
  | [ "Buffer"; ("add_string" | "add_char" | "add_bytes" | "add_buffer"
                | "clear" | "reset" | "truncate") ]
  | [ "Array"; ("set" | "fill" | "blit" | "sort" | "unsafe_set") ]
  | [ "Bytes"; ("set" | "fill" | "blit" | "unsafe_set") ]
  | [ "Atomic"; ("set" | "incr" | "decr") ]
  | [ "Bag"; ("add" | "remove" | "merge_into" | "merge_checked" | "diff_into") ]
  | [ "Algebra"; ("add" | "add_all") ]
  | [ "Delta"; "add" ]
  | [ "Relation"; "apply" ]
  | [ ("Base_table" | "Aux_store" | "Eca_site"); "apply" ] ->
      true
  | _ -> false

(* Root paths of the mutable structures an expression exposes: variable
   and field chains, stopping at [*.copy] calls (the sanctioned
   copy-on-send barrier) and fresh constructions. *)
let rec root_path e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> Some [ x ]
  | Pexp_field (base, { txt; _ }) -> (
      match root_path base with
      | Some p -> (
          match List.rev (path_of txt) with
          | lbl :: _ -> Some (p @ [ lbl ])
          | [] -> None)
      | None -> None)
  | Pexp_constraint (e, _) -> root_path e
  | _ -> None

let is_copy_call f =
  match f.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match List.rev (path_of txt) with
      | "copy" :: _ -> true
      | _ -> false)
  | _ -> false

let payload_roots e =
  let out = ref [] in
  let rec go e =
    match e.pexp_desc with
    | Pexp_apply (f, args) ->
        if not (is_copy_call f) then List.iter (fun (_, a) -> go a) args
    | Pexp_tuple es -> List.iter go es
    | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) -> go e
    | Pexp_record (fields, base) ->
        List.iter (fun (_, v) -> go v) fields;
        Option.iter go base
    | Pexp_constraint (e, _) | Pexp_open (_, e) -> go e
    | Pexp_field _ | Pexp_ident _ -> (
        match root_path e with Some p -> out := p :: !out | None -> ())
    | _ -> ()
  in
  go e;
  !out

(* Prefix-compatible paths alias the same structure: sending [vc] and
   then mutating [vc.dv] is a flagged pair; [vc.qid] vs [vc.dv] is not. *)
let aliases sent mutated =
  let rec pre a b =
    match (a, b) with
    | [], _ | _, [] -> true
    | x :: a, y :: b -> x = y && pre a b
  in
  pre sent mutated

let offset_of (loc : Location.t) = loc.loc_start.Lexing.pos_cnum

(* Cross-shard delivery (ROADMAP item 3) makes a sent structure
   concurrently owned by the receiver the moment send returns; mutating
   it afterwards in the same function is a race in the domains build and
   an aliasing bug in the simulator. The rule is lexical and per
   definition: sends and subsequent mutations of a prefix-compatible
   path. *)
let l9 ctx (str : structure) =
  if not (in_lib ctx.file) then []
  else begin
    let out = ref [] in
    List.iter
      (fun vb ->
        let sends = ref [] in
        let muts = ref [] in
        iter_exprs_in_expr
          (fun e ->
            match e.pexp_desc with
            | Pexp_apply (f, args) -> (
                let is_send =
                  match f.pexp_desc with
                  | Pexp_ident { txt; _ } -> (
                      match List.rev (path_of txt) with
                      | "send" :: _ -> true
                      | _ -> false)
                  | Pexp_field (_, { txt; _ }) -> (
                      match List.rev (path_of txt) with
                      | "send" :: _ -> true
                      | _ -> false)
                  | _ -> false
                in
                if is_send then begin
                  let roots =
                    List.concat_map (fun (_, a) -> payload_roots a) args
                  in
                  if roots <> [] then
                    sends := (offset_of e.pexp_loc, e.pexp_loc, roots) :: !sends
                end
                else
                  match f.pexp_desc with
                  | Pexp_ident { txt; _ } -> (
                      let parts = path_of txt in
                      let note target =
                        match root_path target with
                        | Some p ->
                            muts :=
                              ( offset_of e.pexp_loc, e.pexp_loc, p,
                                dotted txt )
                              :: !muts
                        | None -> ()
                      in
                      match parts with
                      | [ ":=" ] | [ "incr" ] | [ "decr" ] -> (
                          match args with
                          | (_, target) :: _ -> note target
                          | [] -> ())
                      | _ when mutator_target parts -> (
                          let labelled_into =
                            List.find_opt
                              (fun (lbl, _) -> lbl = Asttypes.Labelled "into")
                              args
                          in
                          match labelled_into with
                          | Some (_, target) -> note target
                          | None -> (
                              match
                                List.find_opt
                                  (fun (lbl, _) -> lbl = Asttypes.Nolabel)
                                  args
                              with
                              | Some (_, target) -> note target
                              | None -> ()))
                      | _ -> ())
                  | _ -> ())
            | Pexp_setfield (recv, { txt; _ }, _) -> (
                match root_path recv with
                | Some p -> (
                    match List.rev (path_of txt) with
                    | lbl :: _ ->
                        let path = p @ [ lbl ] in
                        muts :=
                          (offset_of e.pexp_loc, e.pexp_loc, path, "<-")
                          :: !muts
                    | [] -> ())
                | None -> ())
            | _ -> ())
          vb.pvb_expr;
        List.iter
          (fun (m_off, m_loc, m_path, m_op) ->
            match
              List.find_opt
                (fun (s_off, _, roots) ->
                  s_off < m_off
                  && List.exists (fun r -> aliases r m_path) roots)
                (List.rev !sends)
            with
            | Some (_, s_loc, _) ->
                out :=
                  finding ctx ~loc:m_loc ~rule:"L9" ~severity:Finding.Error
                    ~message:
                      (Printf.sprintf
                         "`%s` mutates `%s` after it was sent at line %d: \
                          the receiver observes the mutation (and races \
                          on it once shards run on domains)"
                         m_op
                         (String.concat "." m_path)
                         (line_of s_loc))
                    ~hint:
                      "send a copy (`Partial.copy`/`Delta.copy`/\
                       `Relation.copy`) and keep mutating the original, \
                       or finish mutating before the send"
                  :: !out
            | None -> ())
          (List.rev !muts))
      (structure_bindings str);
    List.sort Finding.compare !out
  end

(* ————— registry ————— *)

let all : (string * (ctx -> structure -> Finding.t list)) list =
  [ ("L1", l1); ("L2", l2); ("L3", l3); ("L4", l4); ("L7", l7); ("L8", l8);
    ("L9", l9) ]

(* id, slug, one-line description — the SARIF rule table and the
   per-rule report stats both read from here. *)
let meta =
  [ ("L1", "determinism",
     "no ambient randomness, wall-clock reads or randomized hashing");
    ("L2", "iteration-order",
     "Hashtbl iteration must not reach encodings without a sort");
    ("L3", "quadratic",
     "no O(n^2) list appends or repeated List.length in loops");
    ("L4", "exception-hygiene",
     "no catch-all swallows or context-free raises across interfaces");
    ("L7", "toplevel-mutable-state",
     "no module-init mutable values in lib/ (domain-shared state)");
    ("L8", "hot-path-effects",
     "no direct I/O or wall-clock reads reachable from handlers");
    ("L9", "send-aliasing",
     "no mutation of a structure after sending it (copy-on-send)") ]

let run ctx str = List.concat_map (fun (_, rule) -> rule ctx str) all
