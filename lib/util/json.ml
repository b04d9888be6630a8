type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Emitting *)

let escape_to buf s =
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

let float_to_string f =
  let s15 = Printf.sprintf "%.15g" f in
  if float_of_string s15 = f then s15 else Printf.sprintf "%.17g" f

(* A trailing ".0" is forced so the parser types the number as Float,
   not Int. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s = float_to_string f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0"

let rec emit ~indent ~level buf j =
  let pad n = Buffer.add_string buf (String.make (n * 2) ' ') in
  let sep_open, sep_item, sep_close =
    if indent then
      ( (fun () -> Buffer.add_char buf '\n'),
        (fun () ->
          Buffer.add_string buf ",\n";
          pad (level + 1)),
        fun () ->
          Buffer.add_char buf '\n';
          pad level )
    else
      ( (fun () -> ()),
        (fun () -> Buffer.add_string buf ", "),
        fun () -> () )
  in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_to buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    sep_open ();
    if indent then pad (level + 1);
    List.iteri
      (fun i item ->
        if i > 0 then sep_item ();
        emit ~indent ~level:(level + 1) buf item)
      items;
    sep_close ();
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    sep_open ();
    if indent then pad (level + 1);
    List.iteri
      (fun i (k, v) ->
        if i > 0 then sep_item ();
        escape_to buf k;
        Buffer.add_string buf ": ";
        emit ~indent ~level:(level + 1) buf v)
      fields;
    sep_close ();
    Buffer.add_char buf '}'

let render ~indent j =
  let buf = Buffer.create 256 in
  emit ~indent ~level:0 buf j;
  Buffer.contents buf

let to_string j = render ~indent:false j

let to_string_pretty j = render ~indent:true j

let pp ppf j = Format.pp_print_string ppf (to_string_pretty j)

let write_file path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string_pretty j);
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Parsing *)

exception Fail of int * string

let parse_exn_at s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail (Printf.sprintf "expected %C, got %C" c got)
    | None -> fail (Printf.sprintf "expected %C, got end of input" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "bad literal (expected %s)" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let utf8_add buf cp =
    (* encode one Unicode scalar value *)
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
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | None -> fail "unterminated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            let hi = hex4 () in
            if hi >= 0xD800 && hi <= 0xDBFF then begin
              (* surrogate pair *)
              expect '\\';
              expect 'u';
              let lo = hex4 () in
              if lo < 0xDC00 || lo > 0xDFFF then fail "bad low surrogate";
              utf8_add buf (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
            end
            else utf8_add buf hi
          | c -> fail (Printf.sprintf "bad escape \\%C" c));
          go ())
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let seen = ref false in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        seen := true;
        advance ()
      done;
      if not !seen then fail "expected digit"
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
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
        let items = ref [] in
        let rec go () =
          items := parse_value () :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            go ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        go ();
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
        let fields = ref [] in
        let rec go () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          fields := (key, value) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            go ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        go ();
        Obj (List.rev !fields)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s =
  match parse_exn_at s with
  | v -> Ok v
  | exception Fail (pos, msg) -> Error (Printf.sprintf "byte %d: %s" pos msg)

let parse_exn s =
  match parse s with
  | Ok v -> v
  | Error msg -> invalid_arg ("Json.parse_exn: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let index i = function
  | List items -> List.nth_opt items i
  | _ -> None

let as_string = function String s -> Some s | _ -> None

let as_int = function Int i -> Some i | _ -> None

let as_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let as_bool = function Bool b -> Some b | _ -> None

let as_list = function List items -> Some items | _ -> None

let equal (a : t) (b : t) = a = b

let diff ?(ignore = []) a b =
  let key path k = if path = "" then k else path ^ "." ^ k in
  let kept = List.filter (fun (k, _) -> not (List.mem k ignore)) in
  let rec value path a b =
    match (a, b) with
    | Obj fa, Obj fb -> fields path (kept fa) (kept fb)
    | List la, List lb when List.compare_lengths la lb = 0 -> items path 0 la lb
    | _ -> if a = b then None else Some path
  and fields path fa fb =
    match (fa, fb) with
    | [], [] -> None
    | (ka, va) :: ra, (kb, vb) :: rb when ka = kb -> (
      match value (key path ka) va vb with None -> fields path ra rb | d -> d)
    | (k, _) :: _, _ | [], (k, _) :: _ -> Some (key path k)
  and items path i la lb =
    match (la, lb) with
    | a :: ra, b :: rb -> (
      match value (Printf.sprintf "%s[%d]" path i) a b with
      | None -> items path (i + 1) ra rb
      | d -> d)
    | _ -> None
  in
  value "" a b
