type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* {1 Emission} *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  add_escaped buf s;
  Buffer.contents buf

(* integer-valued floats keep a ".0" so Float survives a round trip; JSON
   has no representation for non-finite numbers, so those become null.
   12 significant digits cover almost every value we emit; when they do
   not reparse to the same double (the result cache replays PPA numbers
   and must be bit-exact) fall back to the full 17 *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string ?(pretty = false) v =
  let buf = Buffer.create 256 in
  let pad depth = if pretty then Buffer.add_string buf (String.make (2 * depth) ' ') in
  let newline () = if pretty then Buffer.add_char buf '\n' in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> add_escaped buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      newline ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (depth + 1);
          emit (depth + 1) item)
        items;
      newline ();
      pad depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj members ->
      Buffer.add_char buf '{';
      newline ();
      List.iteri
        (fun i (k, item) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (depth + 1);
          add_escaped buf k;
          Buffer.add_char buf ':';
          if pretty then Buffer.add_char buf ' ';
          emit (depth + 1) item)
        members;
      newline ();
      pad depth;
      Buffer.add_char buf '}'
  in
  emit 0 v;
  Buffer.contents buf

let write_file ~path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string ~pretty:true v);
      output_char oc '\n')

(* {1 Parsing} *)

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "Jsonout.of_string: %s at offset %d" msg !pos) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
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
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
           if !pos + 4 > n then fail "truncated \\u escape";
           let code =
             (hex_digit s.[!pos] lsl 12)
             lor (hex_digit s.[!pos + 1] lsl 8)
             lor (hex_digit s.[!pos + 2] lsl 4)
             lor hex_digit s.[!pos + 3]
           in
           pos := !pos + 4;
           (* encode the code point as UTF-8 (no surrogate-pair handling;
              the emitter only escapes control characters) *)
           if code < 0x80 then Buffer.add_char buf (Char.chr code)
           else if code < 0x800 then begin
             Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
           end
           else begin
             Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
             Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
           end
         | _ -> fail "unknown escape");
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
      advance ()
    done;
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        advance ()
      done
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        advance ()
      done
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let parse_member () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let members = ref [ parse_member () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          members := parse_member () :: !members;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !members)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj members -> List.assoc_opt key members
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

(* {1 Typed field access} *)

let as_int = function Int i -> Some i | _ -> None

let as_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let as_string = function String s -> Some s | _ -> None
let as_bool = function Bool b -> Some b | _ -> None

(* [member] without its [Some]: a missing key reads as [Null], which no
   coercion accepts, so a field read allocates only its result *)
let rec find key = function
  | [] -> Null
  | (k, v) :: rest -> if String.equal k key then v else find key rest

let field key = function Obj members -> find key members | _ -> Null
let int key j = as_int (field key j)
let float key j = as_float (field key j)
let string key j = as_string (field key j)
let bool key j = as_bool (field key j)
