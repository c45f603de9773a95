type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- printing ---------------------------------------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
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
  Buffer.add_char buf '"';
  Buffer.contents buf

let add_num buf f =
  if Float.is_nan f then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f <= 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else if Float.is_finite f then
    Buffer.add_string buf (Printf.sprintf "%.17g" f)
  else Buffer.add_string buf (if f > 0.0 then "1e999" else "-1e999")

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> add_num buf f
    | Str s -> Buffer.add_string buf (escape s)
    | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          go x)
        xs;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (escape k);
          Buffer.add_char buf ':';
          go x)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* --- parsing ----------------------------------------------------------- *)

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
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
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "unterminated escape";
         match s.[!pos] with
         | '"' -> Buffer.add_char buf '"'; advance ()
         | '\\' -> Buffer.add_char buf '\\'; advance ()
         | '/' -> Buffer.add_char buf '/'; advance ()
         | 'b' -> Buffer.add_char buf '\b'; advance ()
         | 'f' -> Buffer.add_char buf '\012'; advance ()
         | 'n' -> Buffer.add_char buf '\n'; advance ()
         | 'r' -> Buffer.add_char buf '\r'; advance ()
         | 't' -> Buffer.add_char buf '\t'; advance ()
         | 'u' ->
           advance ();
           let cp = hex4 () in
           (* surrogate pair *)
           let cp =
             if cp >= 0xD800 && cp <= 0xDBFF
                && !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
             then begin
               pos := !pos + 2;
               let lo = hex4 () in
               if lo >= 0xDC00 && lo <= 0xDFFF then
                 0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
               else fail "unpaired surrogate"
             end
             else cp
           in
           add_utf8 buf cp
         | _ -> fail "bad escape");
        go ()
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let had = ref false in
      while
        !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false
      do
        had := true;
        advance ()
      done;
      if not !had then fail "expected digits"
    in
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value depth =
    if depth > 100 then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec go () =
          items := parse_value (depth + 1) :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); go ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        go ();
        Arr (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec go () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); go ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        go ();
        Obj (List.rev !fields)
      end
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
    Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

(* --- accessors --------------------------------------------------------- *)

let mem k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None

let int = function
  | Num f
    when Float.is_integer f
         && f >= Int.to_float min_int
         && f <= Int.to_float max_int ->
    Some (Float.to_int f)
  | _ -> None

let bool = function Bool b -> Some b | _ -> None
let arr = function Arr xs -> Some xs | _ -> None

let str_field ?default k o =
  match mem k o with
  | Some v -> str v
  | None -> default

let bool_field ~default k o =
  match mem k o with
  | Some v -> bool v
  | None -> Some default
