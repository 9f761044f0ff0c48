type align = L | R

(* Column width must count display glyphs, not bytes: headers contain
   UTF-8 (Δ, ⋈). Count non-continuation bytes. *)
let display_width s =
  let w = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr w) s;
  !w

let pad align width s =
  let gap = width - display_width s in
  if gap <= 0 then s
  else
    match align with
    | L -> s ^ String.make gap ' '
    | R -> String.make gap ' ' ^ s

let table ?aligns ~title ~headers ~rows () =
  let ncols = List.length headers in
  let aligns =
    match aligns with
    | Some a -> a
    | None -> List.init ncols (fun i -> if i = 0 then L else R)
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row ->
            match List.nth_opt row i with
            | Some cell -> max acc (display_width cell)
            | None -> acc)
          (display_width h) rows)
      headers
  in
  let buf = Buffer.create 1024 in
  let rule () =
    Buffer.add_char buf '+';
    List.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let line cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        let a = List.nth aligns i in
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad a w cell);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  rule ();
  line headers;
  rule ();
  List.iter
    (fun row ->
      let row =
        if List.length row < ncols then
          row @ List.init (ncols - List.length row) (fun _ -> "")
        else row
      in
      line row)
    rows;
  rule ();
  Buffer.contents buf

type block =
  | Text of string list
  | Table of {
      aligns : align list option;
      headers : string list;
      rows : string list list;
    }

let render page =
  String.concat ""
    (List.map
       (function
         | Text lines -> String.concat "" (List.map (fun l -> l ^ "\n") lines)
         | Table { aligns; headers; rows } ->
             table ?aligns ~title:"" ~headers ~rows ())
       page)

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x

let write_json path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Repro_observability.Jsonw.to_channel ~indent:2 oc json)
