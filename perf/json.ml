(* Just enough JSON for the benchmark's result files, BENCHMARK.json and
   trace export. Numbers print with all 17 significant digits so a
   recorded measurement reads back exactly. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int i = Num (float_of_int i)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num f when not (Float.is_finite f) -> Buffer.add_string buf "null"
  | Num f when Float.is_integer f && Float.abs f < 1e15 ->
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  | Num f -> Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Str s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  | Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf (Str k);
        Buffer.add_char buf ':';
        emit buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  emit buf j;
  Buffer.contents buf

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec skip () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip ()
      | _ -> ()
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
        if !pos >= n then fail "bad escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !pos + 4 > n then fail "bad \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          Buffer.add_utf_8_uchar buf (Uchar.of_int code)
        | c -> Buffer.add_char buf c);
        go ()
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec members acc =
          let k = string () in
          expect ':';
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then begin
            incr pos;
            skip ();
            members ((k, v) :: acc)
          end
          else begin
            expect '}';
            Obj (List.rev ((k, v) :: acc))
          end
        in
        members []
    | '[' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec items acc =
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then begin
            incr pos;
            items (v :: acc)
          end
          else begin
            expect ']';
            Arr (List.rev (v :: acc))
          end
        in
        items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing data";
  v

let read_file path =
  let ic = open_in_bin path in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))
  in
  parse s

let write_file path j =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_string j);
      output_char oc '\n')

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let member_list k j = match member k j with Some (Arr xs) -> xs | _ -> []
let member_str k j = match member k j with Some (Str s) -> Some s | _ -> None
let member_num k j = match member k j with Some (Num f) -> Some f | _ -> None
