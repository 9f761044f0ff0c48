(* Minimal recursive-descent JSON reader, independent of the writer in
   {!Jsonw} (shared value type, separate code path). Used by the
   round-trip tests and the wall-clock benchmark (bench/perf). Accepts
   RFC 8259 documents; numbers without '.', 'e' or 'E' that fit an
   OCaml int parse as [Int]. *)

type state = { src : string; mutable pos : int }

exception Fail of string * int

let fail st msg = raise (Fail (msg, st.pos))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      st.pos <- st.pos + 1;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected %C" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail st "bad \\u escape"

(* Decode a \uXXXX escape (and a following low surrogate when XXXX is a
   high surrogate) to UTF-8 bytes. *)
let parse_u16 st =
  if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
  let v =
    (hex_digit st st.src.[st.pos] lsl 12)
    lor (hex_digit st st.src.[st.pos + 1] lsl 8)
    lor (hex_digit st st.src.[st.pos + 2] lsl 4)
    lor hex_digit st st.src.[st.pos + 3]
  in
  st.pos <- st.pos + 4;
  v

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' -> (
        st.pos <- st.pos + 1;
        match peek st with
        | Some '"' -> Buffer.add_char buf '"'; st.pos <- st.pos + 1; loop ()
        | Some '\\' -> Buffer.add_char buf '\\'; st.pos <- st.pos + 1; loop ()
        | Some '/' -> Buffer.add_char buf '/'; st.pos <- st.pos + 1; loop ()
        | Some 'n' -> Buffer.add_char buf '\n'; st.pos <- st.pos + 1; loop ()
        | Some 't' -> Buffer.add_char buf '\t'; st.pos <- st.pos + 1; loop ()
        | Some 'r' -> Buffer.add_char buf '\r'; st.pos <- st.pos + 1; loop ()
        | Some 'b' -> Buffer.add_char buf '\b'; st.pos <- st.pos + 1; loop ()
        | Some 'f' -> Buffer.add_char buf '\012'; st.pos <- st.pos + 1; loop ()
        | Some 'u' ->
            st.pos <- st.pos + 1;
            let hi = parse_u16 st in
            let cp =
              if hi >= 0xD800 && hi <= 0xDBFF then begin
                expect st '\\';
                expect st 'u';
                let lo = parse_u16 st in
                if lo < 0xDC00 || lo > 0xDFFF then fail st "bad surrogate pair";
                0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
              end
              else hi
            in
            add_utf8 buf cp;
            loop ()
        | _ -> fail st "bad escape")
    | Some c when Char.code c < 0x20 -> fail st "raw control char in string"
    | Some c ->
        Buffer.add_char buf c;
        st.pos <- st.pos + 1;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    match peek st with Some c when is_num_char c -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done;
  let s = String.sub st.src start (st.pos - start) in
  let has_frac = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s in
  if has_frac then
    match float_of_string_opt s with
    | Some f -> Jsonw.Float f
    | None -> fail st "bad number"
  else
    match int_of_string_opt s with
    | Some i -> Jsonw.Int i
    | None -> (
        (* integer overflowing native int: keep it as a float *)
        match float_of_string_opt s with
        | Some f -> Jsonw.Float f
        | None -> fail st "bad number")

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Jsonw.Obj []
      end
      else begin
        let rec fields acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              fields ((k, v) :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              List.rev ((k, v) :: acc)
          | _ -> fail st "expected ',' or '}'"
        in
        Jsonw.Obj (fields [])
      end
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        Jsonw.List []
      end
      else begin
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              items (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              List.rev (v :: acc)
          | _ -> fail st "expected ',' or ']'"
        in
        Jsonw.List (items [])
      end
  | Some '"' -> Jsonw.String (parse_string st)
  | Some 't' -> literal st "true" (Jsonw.Bool true)
  | Some 'f' -> literal st "false" (Jsonw.Bool false)
  | Some 'n' -> literal st "null" Jsonw.Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected %C" c)

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at byte %d" st.pos)
      else Ok v
  | exception Fail (msg, pos) ->
      Error (Printf.sprintf "parse error at byte %d: %s" pos msg)

let parse_exn s =
  match parse s with Ok v -> v | Error msg -> invalid_arg ("Jsonr: " ^ msg)
