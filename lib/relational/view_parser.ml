(* Hand-rolled lexer + recursive-descent parser. Kept dependency-free; the
   grammar is small and the error positions matter more than parser
   generators would buy us. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | COMMA
  | LPAREN
  | RPAREN
  | DOT
  | STAR
  | OP of Predicate.cmp
  | KW of string  (* uppercased keyword *)
  | EOF

type lexed = { token : token; pos : int }

exception Error of string * int

let error pos fmt = Printf.ksprintf (fun m -> raise (Error (m, pos))) fmt

let keywords =
  [ "SELECT"; "FROM"; "WHERE"; "AND"; "OR"; "NOT"; "KEY"; "INT"; "FLOAT";
    "STR"; "BOOL"; "TRUE"; "FALSE" ]

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let lex src =
  let n = String.length src in
  let out = ref [] in
  let emit pos token = out := { token; pos } :: !out in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    let pos = !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do incr j done;
      let word = String.sub src !i (!j - !i) in
      i := !j;
      let upper = String.uppercase_ascii word in
      if List.mem upper keywords then emit pos (KW upper)
      else emit pos (IDENT word)
    end
    else if is_digit c then begin
      let j = ref !i in
      while !j < n && is_digit src.[!j] do incr j done;
      if !j < n && src.[!j] = '.' then begin
        incr j;
        while !j < n && is_digit src.[!j] do incr j done;
        let text = String.sub src !i (!j - !i) in
        i := !j;
        emit pos (FLOAT (float_of_string text))
      end
      else begin
        let text = String.sub src !i (!j - !i) in
        i := !j;
        emit pos (INT (int_of_string text))
      end
    end
    else
      match c with
      | ',' -> emit pos COMMA; incr i
      | '(' -> emit pos LPAREN; incr i
      | ')' -> emit pos RPAREN; incr i
      | '.' -> emit pos DOT; incr i
      | '*' -> emit pos STAR; incr i
      | '\'' ->
          let j = ref (!i + 1) in
          while !j < n && src.[!j] <> '\'' do incr j done;
          if !j >= n then error pos "unterminated string literal";
          emit pos (STRING (String.sub src (!i + 1) (!j - !i - 1)));
          i := !j + 1
      | '=' -> emit pos (OP Predicate.Eq); incr i
      | '<' ->
          if !i + 1 < n && src.[!i + 1] = '>' then begin
            emit pos (OP Predicate.Ne); i := !i + 2
          end
          else if !i + 1 < n && src.[!i + 1] = '=' then begin
            emit pos (OP Predicate.Le); i := !i + 2
          end
          else begin emit pos (OP Predicate.Lt); incr i end
      | '>' ->
          if !i + 1 < n && src.[!i + 1] = '=' then begin
            emit pos (OP Predicate.Ge); i := !i + 2
          end
          else begin emit pos (OP Predicate.Gt); incr i end
      | '!' ->
          if !i + 1 < n && src.[!i + 1] = '=' then begin
            emit pos (OP Predicate.Ne); i := !i + 2
          end
          else error pos "unexpected character '!'"
      | _ -> error pos "unexpected character %C" c
  done;
  emit n EOF;
  List.rev !out

(* --- token stream --------------------------------------------------- *)

type stream = { mutable items : lexed list }

let peek s = match s.items with [] -> assert false | t :: _ -> t

let next s =
  let t = peek s in
  (match s.items with [] -> () | _ :: rest -> s.items <- rest);
  t

let expect s want describe =
  let t = next s in
  if t.token <> want then error t.pos "expected %s" describe

let expect_kw s kw =
  let t = next s in
  match t.token with
  | KW k when k = kw -> ()
  | _ -> error t.pos "expected %s" kw

let ident s =
  let t = next s in
  match t.token with
  | IDENT name -> (name, t.pos)
  | _ -> error t.pos "expected an identifier"

(* --- AST before resolution ------------------------------------------ *)

type operand =
  | Qattr of string * string * int  (* rel, attr, pos *)
  | Lit of Value.t

type expr =
  | Cmp of Predicate.cmp * operand * operand
  | And of expr * expr
  | Or of expr * expr
  | Not of expr

(* --- parsing --------------------------------------------------------- *)

let parse_type s =
  let t = next s in
  match t.token with
  | KW "INT" -> Value.T_int
  | KW "FLOAT" -> Value.T_float
  | KW "STR" -> Value.T_str
  | KW "BOOL" -> Value.T_bool
  | _ -> error t.pos "expected a type (int, float, str, bool)"

let parse_attr s =
  let name, _ = ident s in
  let ty = parse_type s in
  let key =
    match (peek s).token with
    | KW "KEY" ->
        ignore (next s);
        true
    | _ -> false
  in
  Schema.attr ~key name ty

let parse_relation s =
  let name, _ = ident s in
  expect s LPAREN "'('";
  let attrs = ref [ parse_attr s ] in
  while (peek s).token = COMMA do
    ignore (next s);
    attrs := parse_attr s :: !attrs
  done;
  expect s RPAREN "')'";
  Schema.make name (List.rev !attrs)

let parse_qattr s =
  let rel, pos = ident s in
  expect s DOT "'.' (attributes must be qualified as Rel.attr)";
  let attr, _ = ident s in
  Qattr (rel, attr, pos)

let parse_operand s =
  let t = peek s in
  match t.token with
  | IDENT _ -> parse_qattr s
  | INT i ->
      ignore (next s);
      Lit (Value.int i)
  | FLOAT f ->
      ignore (next s);
      Lit (Value.float f)
  | STRING str ->
      ignore (next s);
      Lit (Value.str str)
  | KW "TRUE" ->
      ignore (next s);
      Lit (Value.bool true)
  | KW "FALSE" ->
      ignore (next s);
      Lit (Value.bool false)
  | _ -> error t.pos "expected an attribute or a literal"

let rec parse_expr s = parse_or s

and parse_or s =
  let left = parse_and s in
  match (peek s).token with
  | KW "OR" ->
      ignore (next s);
      Or (left, parse_or s)
  | _ -> left

and parse_and s =
  let left = parse_not s in
  match (peek s).token with
  | KW "AND" ->
      ignore (next s);
      And (left, parse_and s)
  | _ -> left

and parse_not s =
  match (peek s).token with
  | KW "NOT" ->
      ignore (next s);
      Not (parse_not s)
  | LPAREN ->
      ignore (next s);
      let e = parse_expr s in
      expect s RPAREN "')'";
      e
  | _ ->
      let l = parse_operand s in
      let t = next s in
      let op =
        match t.token with
        | OP op -> op
        | _ -> error t.pos "expected a comparison operator"
      in
      let r = parse_operand s in
      Cmp (op, l, r)

let parse_select_list s =
  match (peek s).token with
  | STAR ->
      ignore (next s);
      `All
  | _ ->
      let items = ref [ parse_qattr s ] in
      while (peek s).token = COMMA do
        ignore (next s);
        items := parse_qattr s :: !items
      done;
      `Attrs (List.rev !items)

(* --- resolution ------------------------------------------------------ *)

let resolve_qattr schemas = function
  | Qattr (rel, attr, pos) ->
      let rec find i =
        if i >= Array.length schemas then
          error pos "unknown relation %s" rel
        else if String.equal (Schema.name schemas.(i)) rel then i
        else find (i + 1)
      in
      let src = find 0 in
      let local =
        match Schema.index_of schemas.(src) attr with
        | a -> a
        | exception Not_found ->
            error pos "relation %s has no attribute %s" rel attr
      in
      let offset = ref 0 in
      for k = 0 to src - 1 do
        offset := !offset + Schema.arity schemas.(k)
      done;
      (src, !offset + local)
  | Lit _ -> invalid_arg "resolve_qattr"

let rec compile_pred schemas e : Predicate.t =
  let operand = function
    | Lit v -> Predicate.Const v
    | Qattr _ as q ->
        let _, g = resolve_qattr schemas q in
        Predicate.Attr g
  in
  match e with
  | Cmp (op, l, r) -> Predicate.Cmp (op, operand l, operand r)
  | And (a, b) -> Predicate.And (compile_pred schemas a, compile_pred schemas b)
  | Or (a, b) -> Predicate.Or (compile_pred schemas a, compile_pred schemas b)
  | Not a -> Predicate.Not (compile_pred schemas a)

(* Split a top-level conjunction into adjacent-equality join conditions
   and residual selection conjuncts. *)
let split_where schemas e =
  let rec conjuncts = function
    | And (a, b) -> conjuncts a @ conjuncts b
    | other -> [ other ]
  in
  let joins = Array.make (Array.length schemas - 1) [] in
  let residual = ref [] in
  let push k eq = joins.(k) <- joins.(k) @ [ eq ] (* lint: allow L3 parse-time only, bounded by the query's join-predicate count *) in
  List.iter
    (fun c ->
      match c with
      | Cmp (Predicate.Eq, (Qattr _ as l), (Qattr _ as r)) ->
          let sl, gl = resolve_qattr schemas l in
          let sr, gr = resolve_qattr schemas r in
          if sl + 1 = sr then push sl (gl, gr)
          else if sr + 1 = sl then push sr (gr, gl)
          else residual := c :: !residual
      | _ -> residual := c :: !residual)
    (conjuncts e);
  let selection =
    Predicate.conj (List.rev_map (compile_pred schemas) !residual)
  in
  (Array.map Join_spec.make joins, selection)

let parse_stream s =
  expect_kw s "SELECT";
  let select = parse_select_list s in
  expect_kw s "FROM";
  let rels = ref [ parse_relation s ] in
  while (peek s).token = COMMA do
    ignore (next s);
    rels := parse_relation s :: !rels
  done;
  let schemas = Array.of_list (List.rev !rels) in
  let joins, selection =
    match (peek s).token with
    | KW "WHERE" ->
        ignore (next s);
        split_where schemas (parse_expr s)
    | _ ->
        (Array.make (Array.length schemas - 1) (Join_spec.make []),
         Predicate.True)
  in
  let t = next s in
  if t.token <> EOF then error t.pos "trailing input after query";
  let total_width =
    Array.fold_left (fun acc sc -> acc + Schema.arity sc) 0 schemas
  in
  let projection =
    match select with
    | `All -> Array.init total_width (fun g -> g)
    | `Attrs items ->
        Array.of_list
          (List.map (fun q -> snd (resolve_qattr schemas q)) items)
  in
  View_def.make ~name:"parsed" ~schemas ~joins ~selection ~projection ()

let parse src =
  match parse_stream { items = lex src } with
  | view -> Ok view
  | exception Error (msg, pos) ->
      Result.Error (Printf.sprintf "parse error at offset %d: %s" pos msg)
  | exception Invalid_argument msg ->
      Result.Error (Printf.sprintf "invalid view: %s" msg)

let parse_exn src =
  match parse src with Ok v -> v | Error msg -> invalid_arg msg

(* --- rendering back to the surface syntax ---------------------------- *)

let sql_of_type = function
  | Value.T_int -> "int"
  | Value.T_float -> "float"
  | Value.T_str -> "str"
  | Value.T_bool -> "bool"

let sql_of_value = function
  | Value.Int i -> string_of_int i
  | Value.Float f -> Printf.sprintf "%g" f
  | Value.Str s -> "'" ^ s ^ "'"
  | Value.Bool b -> string_of_bool b
  | Value.Null ->
      invalid_arg "View_parser.to_sql: NULL constants are not expressible"

let sql_of_cmp = function
  | Predicate.Eq -> "="
  | Predicate.Ne -> "<>"
  | Predicate.Lt -> "<"
  | Predicate.Le -> "<="
  | Predicate.Gt -> ">"
  | Predicate.Ge -> ">="

let valid_ident name =
  String.length name > 0
  && is_ident_start name.[0]
  && String.for_all is_ident_char name
  && not (List.mem (String.uppercase_ascii name) keywords)

let to_sql view =
  (* every relation and attribute name must survive the lexer *)
  Array.iter
    (fun schema ->
      if not (valid_ident (Schema.name schema)) then
        invalid_arg
          (Printf.sprintf "View_parser.to_sql: unrepresentable relation name %S"
             (Schema.name schema));
      Array.iter
        (fun a ->
          if not (valid_ident a.Schema.name) then
            invalid_arg
              (Printf.sprintf
                 "View_parser.to_sql: unrepresentable attribute name %S"
                 a.Schema.name))
        (Schema.attrs schema))
    (View_def.schemas view);
  let buf = Buffer.create 256 in
  let qattr g =
    let src = View_def.source_of_global view g in
    let schema = View_def.schema view src in
    let local = g - View_def.offset view src in
    Printf.sprintf "%s.%s" (Schema.name schema)
      (Schema.attrs schema).(local).Schema.name
  in
  (* SELECT *)
  Buffer.add_string buf "SELECT ";
  Array.iteri
    (fun i g ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (qattr g))
    (View_def.projection view);
  (* FROM *)
  Buffer.add_string buf " FROM ";
  Array.iteri
    (fun i schema ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Schema.name schema);
      Buffer.add_char buf '(';
      Array.iteri
        (fun k a ->
          if k > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf "%s %s%s" a.Schema.name (sql_of_type a.Schema.ty)
               (if a.Schema.key then " key" else "")))
        (Schema.attrs schema);
      Buffer.add_char buf ')')
    (View_def.schemas view);
  (* WHERE: join equalities and residuals, then the selection *)
  let sql_of_expr = function
    | Predicate.Const v -> sql_of_value v
    | Predicate.Attr g -> qattr g
  in
  let rec sql_of_pred = function
    | Predicate.True -> "0 = 0"
    | Predicate.False -> "0 = 1"
    | Predicate.Cmp (op, l, r) ->
        Printf.sprintf "%s %s %s" (sql_of_expr l) (sql_of_cmp op)
          (sql_of_expr r)
    | Predicate.And (a, b) ->
        Printf.sprintf "(%s AND %s)" (sql_of_pred a) (sql_of_pred b)
    | Predicate.Or (a, b) ->
        Printf.sprintf "(%s OR %s)" (sql_of_pred a) (sql_of_pred b)
    | Predicate.Not a -> Printf.sprintf "NOT (%s)" (sql_of_pred a)
  in
  let conjuncts =
    List.concat
      [ Array.to_list (View_def.joins view)
        |> List.concat_map (fun spec ->
               List.map
                 (fun (l, r) -> Printf.sprintf "%s = %s" (qattr l) (qattr r))
                 spec.Join_spec.equalities
               @
               match spec.Join_spec.residual with
               | None -> []
               | Some p -> [ sql_of_pred p ]);
        (match View_def.selection view with
        | Predicate.True -> []
        | sel -> [ sql_of_pred sel ]) ]
  in
  (match conjuncts with
  | [] -> ()
  | cs ->
      Buffer.add_string buf " WHERE ";
      Buffer.add_string buf (String.concat " AND " cs));
  Buffer.contents buf
