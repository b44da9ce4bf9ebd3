(* The repository's one JSON codec (etrees.trace): a value type, an
   RFC 8259 parser, and a compact printer, with no external
   dependencies.  It writes the BENCH_*.json reports and the
   bench/db/*.jsonl rows, and re-reads those and the Chrome trace
   files for tests, the perf gate and the CLI's [--check].  (The Chrome
   exporter streams its own compact layout and does not go through the
   printer.)  Not a streaming parser; the largest inputs are traces of
   a few megabytes.

   Numbers keep the integer/float split of the text: a literal without
   fraction or exponent that fits an OCaml int is [Int], everything
   else is [Float].  The printer renders floats with [%.6g], so
   [to_string (parse (to_string v)) = to_string v] for every value. *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (* non-finite values print as [null] *)
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

exception Parse_error of string

type state = { src : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let parse_literal st word v =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    v
  end
  else fail st (Printf.sprintf "expected '%s'" word)

(* Exactly four hex digits after [\u]. *)
let hex4 st =
  if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail st "bad \\u escape"
  in
  let code =
    String.fold_left
      (fun acc c -> (acc * 16) + digit c)
      0
      (String.sub st.src st.pos 4)
  in
  st.pos <- st.pos + 4;
  code

(* A [\u] escape whose "u" was just consumed: a BMP code point, or a
   high+low surrogate pair combined into one character.  A lone
   surrogate is not a character and is rejected. *)
let unicode_escape st =
  let code = hex4 st in
  if code >= 0xDC00 && code <= 0xDFFF then fail st "lone low surrogate"
  else if code >= 0xD800 && code <= 0xDBFF then begin
    if
      not
        (st.pos + 2 <= String.length st.src
        && st.src.[st.pos] = '\\'
        && st.src.[st.pos + 1] = 'u')
    then fail st "lone high surrogate";
    st.pos <- st.pos + 2;
    let low = hex4 st in
    if low < 0xDC00 || low > 0xDFFF then fail st "lone high surrogate";
    Uchar.of_int (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
  end
  else Uchar.of_int code

let parse_string_body st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' -> Buffer.add_utf_8_uchar buf (unicode_escape st)
            | _ -> fail st "bad escape");
            go ())
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

(* RFC 8259: an optional minus, then 0 or a digit string without a
   leading zero, then an optional fraction, then an optional exponent. *)
let parse_number st =
  let start = st.pos in
  let digits () =
    let from = st.pos in
    while match peek st with Some '0' .. '9' -> true | _ -> false do
      advance st
    done;
    if st.pos = from then fail st "bad number: digit expected"
  in
  if peek st = Some '-' then advance st;
  (match peek st with
  | Some '0' -> advance st
  | Some '1' .. '9' -> digits ()
  | _ -> fail st "bad number: digit expected");
  let frac = peek st = Some '.' in
  if frac then begin
    advance st;
    digits ()
  end;
  let exp = match peek st with Some ('e' | 'E') -> true | _ -> false in
  if exp then begin
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    digits ()
  end;
  let s = String.sub st.src start (st.pos - start) in
  (* "-0" stays a float so that it prints back as written. *)
  match if frac || exp || s = "-0" then None else int_of_string_opt s with
  | Some i -> Int i
  | None -> Float (float_of_string s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let key = parse_string_body st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ((key, v) :: acc)
          | Some '}' ->
              advance st;
              List.rev ((key, v) :: acc)
          | _ -> fail st "expected ',' or '}'"
        in
        Obj (members [])
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              elems (v :: acc)
          | Some ']' ->
              advance st;
              List.rev (v :: acc)
          | _ -> fail st "expected ',' or ']'"
        in
        Arr (elems [])
      end
  | Some '"' -> Str (parse_string_body st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some _ -> parse_number st

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then Error "trailing garbage after value"
      else Ok v
  | exception Parse_error msg -> Error msg

let parse_file file =
  match In_channel.with_open_bin file In_channel.input_all with
  | s -> parse s
  | exception Sys_error msg -> Error msg

(* -- printer ------------------------------------------------------- *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec add_value buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* Infinities and NaN are not JSON numbers. *)
      if Float.is_finite f then
        Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null"
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape_string s);
      Buffer.add_char buf '"'
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ", ";
          add_value buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape_string k);
          Buffer.add_string buf "\": ";
          add_value buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  add_value buf v;
  Buffer.contents buf

(* [v] followed by a newline, overwriting [file]. *)
let to_file ~file v =
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc (to_string v);
      Out_channel.output_char oc '\n')

let opt f = function None -> Null | Some v -> f v

(* -- accessors ----------------------------------------------------- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let to_list = function Arr vs -> Some vs | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

let to_num = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None
