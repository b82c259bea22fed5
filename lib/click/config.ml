(** Parser for the Click-like configuration language.

    Supported syntax (a practical subset of Click's):

    {v
    // comment
    cl :: Classifier(12/0800, -);
    chk :: CheckIPHeader;
    cl[0] -> Strip(14) -> chk;
    chk[1] -> Discard;
    v}

    Declarations introduce named elements; connection chains wire output
    port [p] of the left element to input port [q] of the right one
    ([p]/[q] default to 0). Anonymous elements may be declared inline in
    a chain, as in Click. The first declared element is the pipeline
    entry unless an [input] name exists.

    Two quality-of-life extensions over the original subset:

    - [//] line comments are stripped everywhere, including inside
      parenthesised element configs.
    - Named sub-sections group statements: [acl { f :: IPFilter(...); }]
      declares [acl.f], referencable from outside the braces as
      [acl.f]. Inside a section, short names resolve locally first.

    Fabric descriptions use a top-level [topology { ... }] section (see
    {!parse_source}): named [pipeline name { ... }] sub-sections plus
    link, ingress/egress naming and relational property statements,
    consumed by [Vdp_topo.Fabric]. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type token =
  | Ident of string
  | Coloncolon
  | Arrow
  | Lbracket
  | Rbracket
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Eq
  | Dot
  | Semi
  | Int of int
  | Config_blob of string  (** raw text inside parentheses *)

(* Tokenises everything except parenthesised configs, which are kept as
   raw blobs because Click configs have their own per-element syntax.
   [//] comments are stripped even inside blobs (no element config uses
   a double slash; single slashes, as in [12/0800], are untouched). *)
let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let i = ref 0 in
  let push t = tokens := t :: !tokens in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = ':' && !i + 1 < n && src.[!i + 1] = ':' then begin
      push Coloncolon;
      i := !i + 2
    end
    else if c = '-' && !i + 1 < n && src.[!i + 1] = '>' then begin
      push Arrow;
      i := !i + 2
    end
    else if c = '[' then (push Lbracket; incr i)
    else if c = ']' then (push Rbracket; incr i)
    else if c = '{' then (push Lbrace; incr i)
    else if c = '}' then (push Rbrace; incr i)
    else if c = '=' then (push Eq; incr i)
    else if c = '.' then (push Dot; incr i)
    else if c = ';' then (push Semi; incr i)
    else if c = '(' then begin
      (* Raw blob until the matching close paren, comments stripped. *)
      let depth = ref 1 in
      let buf = Buffer.create 32 in
      incr i;
      while !i < n && !depth > 0 do
        let c = src.[!i] in
        if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then
          while !i < n && src.[!i] <> '\n' do incr i done
        else begin
          (match c with
          | '(' -> incr depth
          | ')' -> decr depth
          | _ -> ());
          if !depth > 0 then Buffer.add_char buf c;
          incr i
        end
      done;
      if !depth > 0 then fail "unbalanced parenthesis";
      push (Config_blob (Buffer.contents buf))
    end
    else if c >= '0' && c <= '9' then begin
      let start = !i in
      while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do incr i done;
      let digits = String.sub src start (!i - start) in
      match int_of_string_opt digits with
      | Some v -> push (Int v)
      | None -> fail "number out of range: %s" digits
    end
    else if
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
    then begin
      let start = !i in
      while
        !i < n
        && (let c = src.[!i] in
            (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
            || (c >= '0' && c <= '9') || c = '_')
      do
        incr i
      done;
      push (Ident (String.sub src start (!i - start)))
    end
    else fail "unexpected character %c" c
  done;
  List.rev !tokens

(* Split a config blob on top-level commas. *)
let split_config blob =
  let blob = String.trim blob in
  if blob = "" then []
  else begin
    let parts = ref [] and buf = Buffer.create 16 and depth = ref 0 in
    String.iter
      (fun c ->
        match c with
        | '(' ->
          incr depth;
          Buffer.add_char buf c
        | ')' ->
          decr depth;
          Buffer.add_char buf c
        | ',' when !depth = 0 ->
          parts := Buffer.contents buf :: !parts;
          Buffer.clear buf
        | _ -> Buffer.add_char buf c)
      blob;
    parts := Buffer.contents buf :: !parts;
    List.rev_map String.trim !parts
  end

(* {1 Fabric descriptions} *)

(** A pipeline output port: either egress point [port] of the pipeline
    ([ref_element = None]; egress points are numbered in (node, port)
    order as in {!Pipeline.egress_points}), or the unwired output [port]
    of the named element. *)
type port_ref = {
  ref_pipeline : string;
  ref_element : string option;
  ref_port : int;
}

(** Declared relational properties over fabric ingress/egress names:
    [Reach (a, b)] — some packet injected at ingress [a] reaches egress
    [b]; [Isolate (a, b)] — no packet (sequence) from [a] ever reaches
    [b]; [Temporal (a, b)] — [b] is unreachable from [a] cold, but
    reachable after one priming packet (the NAT'd-flows-answered-only-
    after-an-outbound-packet property). *)
type topo_prop =
  | Reach of string * string
  | Isolate of string * string
  | Temporal of string * string

type topo = {
  topo_pipelines : (string * Pipeline.t) list;  (** declaration order *)
  topo_links : (port_ref * string * int) list;
      (** source output -> (destination pipeline, entry in-port) *)
  topo_ingresses : (string * string * int) list;
      (** fabric ingress: (name, pipeline, entry in-port) *)
  topo_egresses : (string * port_ref) list;  (** named fabric egresses *)
  topo_props : topo_prop list;
}

type source = Single of Pipeline.t | Fabric of topo

(* {1 Parsing} *)

type endpoint = { el : int; port : int option }

(* Mutable token cursor shared by the statement and topology parsers. *)
type cursor = { mutable toks : token list }

let peek cur = match cur.toks with [] -> None | t :: _ -> Some t

let advance cur =
  match cur.toks with
  | [] -> fail "unexpected end of input"
  | t :: rest ->
    cur.toks <- rest;
    t

let expect cur t what =
  let got = advance cur in
  if got <> t then fail "expected %s" what

let ident cur what =
  match advance cur with Ident s -> s | _ -> fail "expected %s" what

(* Parse element declarations and connection chains until [stop] (EOF
   for a whole file, the closing brace of a sub-section) and build the
   pipeline. Sub-sections [name { ... }] recurse with [name.] prefixed
   to every declaration; references inside a section resolve the local
   (prefixed) name first, then fall back to the name as written. *)
let parse_pipeline_body cur ~stop =
  let decls : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let elements = ref [] (* reversed (name, cls, config) *) in
  let nelements = ref 0 in
  let edges = ref [] in
  let anon_counter = ref 0 in
  let declare name cls config =
    if Hashtbl.mem decls name then fail "duplicate element name %s" name;
    let idx = !nelements in
    Hashtbl.add decls name idx;
    elements := (name, cls, config) :: !elements;
    incr nelements;
    idx
  in
  let is_class_name s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z' in
  (* A possibly dotted element name, as written: [a] or [sec.a]. *)
  let dotted first =
    let parts = ref [ first ] in
    let rec go () =
      match peek cur with
      | Some Dot ->
        ignore (advance cur);
        parts := ident cur "name after ." :: !parts;
        go ()
      | _ -> ()
    in
    go ();
    String.concat "." (List.rev !parts)
  in
  let resolve ~prefix name =
    match Hashtbl.find_opt decls (prefix ^ name) with
    | Some idx -> Some idx
    | None -> Hashtbl.find_opt decls name
  in
  (* One element reference inside a chain: a declared name (local names
     shadow outer ones) or an inline anonymous declaration
     Class(config). *)
  let element_ref ~prefix first =
    if is_class_name first then begin
      let config =
        match peek cur with
        | Some (Config_blob blob) ->
          ignore (advance cur);
          split_config blob
        | _ -> []
      in
      incr anon_counter;
      declare (Printf.sprintf "%s%s@%d" prefix first !anon_counter) first
        config
    end
    else
      let name = dotted first in
      match resolve ~prefix name with
      | Some idx -> idx
      | None -> fail "undeclared element %s" name
  in
  let opt_port () =
    match peek cur with
    | Some Lbracket ->
      ignore (advance cur);
      let p =
        match advance cur with
        | Int p -> p
        | _ -> fail "expected port number"
      in
      expect cur Rbracket "]";
      Some p
    | _ -> None
  in
  let rec statement ~prefix =
    match peek cur with
    | None ->
      if stop = Some Rbrace then fail "unterminated section (missing })"
    | Some Rbrace when stop = Some Rbrace && prefix = "" ->
      ignore (advance cur)
    | Some Rbrace when prefix <> "" ->
      (* closes the innermost sub-section; handled by the caller *)
      ()
    | Some Semi ->
      ignore (advance cur);
      statement ~prefix
    | Some (Ident first) -> (
      ignore (advance cur);
      match peek cur with
      | Some Coloncolon ->
        (* name :: Class(config) ; *)
        ignore (advance cur);
        let cls =
          match advance cur with
          | Ident c -> c
          | _ -> fail "expected class name after ::"
        in
        let config =
          match peek cur with
          | Some (Config_blob blob) ->
            ignore (advance cur);
            split_config blob
          | _ -> []
        in
        ignore (declare (prefix ^ first) cls config);
        expect cur Semi ";";
        statement ~prefix
      | Some Lbrace when not (is_class_name first) ->
        (* Named sub-section: [first { statements }]. *)
        ignore (advance cur);
        statement ~prefix:(prefix ^ first ^ ".");
        expect cur Rbrace "}";
        statement ~prefix
      | _ ->
        (* A connection chain starting with [first]. *)
        let src = element_ref ~prefix first in
        chain ~prefix { el = src; port = opt_port () };
        statement ~prefix)
    | Some _ -> fail "expected element name or declaration"
  and chain ~prefix (src : endpoint) =
    match peek cur with
    | Some Arrow ->
      ignore (advance cur);
      let dport = opt_port () in
      let dst_ident =
        match advance cur with
        | Ident id -> id
        | _ -> fail "expected element after ->"
      in
      let dst = element_ref ~prefix dst_ident in
      let sport_next = opt_port () in
      edges :=
        (src.el, Option.value ~default:0 src.port, dst,
         Option.value ~default:0 dport)
        :: !edges;
      chain ~prefix { el = dst; port = sport_next }
    | Some Semi ->
      ignore (advance cur)
    | None -> ()
    | Some Rbrace -> ()
    | Some _ -> fail "expected -> or ; in chain"
  in
  statement ~prefix:"";
  if !nelements = 0 then fail "empty pipeline";
  let elements =
    List.rev_map
      (fun (name, cls, config) -> Registry.make ~name ~cls ~config)
      !elements
  in
  let entry =
    match Hashtbl.find_opt decls "input" with Some i -> i | None -> 0
  in
  Pipeline.validate (Pipeline.create ~entry elements (List.rev !edges))

(* {2 Topology sections} *)

(* [pipe[port]] or [pipe.element[port]]. *)
let parse_port_ref cur first =
  let ref_element, ref_port =
    match peek cur with
    | Some Dot ->
      ignore (advance cur);
      let el = ident cur "element name after ." in
      expect cur Lbracket "[";
      let p = match advance cur with
        | Int p -> p
        | _ -> fail "expected port number"
      in
      expect cur Rbracket "]";
      (Some el, p)
    | Some Lbracket ->
      ignore (advance cur);
      let p = match advance cur with
        | Int p -> p
        | _ -> fail "expected port number"
      in
      expect cur Rbracket "]";
      (None, p)
    | _ -> (None, 0)
  in
  { ref_pipeline = first; ref_element; ref_port }

let parse_topology cur =
  expect cur Lbrace "{ after topology";
  let pipelines = ref [] in
  let links = ref [] in
  let ingresses = ref [] in
  let egresses = ref [] in
  let props = ref [] in
  let prop_pair () =
    let a = ident cur "ingress name" in
    expect cur Arrow "->";
    let b = ident cur "egress name" in
    expect cur Semi ";";
    (a, b)
  in
  let rec stmt () =
    match peek cur with
    | None -> fail "unterminated topology section (missing })"
    | Some Rbrace -> ignore (advance cur)
    | Some Semi ->
      ignore (advance cur);
      stmt ()
    | Some (Ident "pipeline") ->
      ignore (advance cur);
      let name = ident cur "pipeline name" in
      if List.mem_assoc name !pipelines then
        fail "duplicate pipeline name %s" name;
      expect cur Lbrace "{ after pipeline name";
      let pl = parse_pipeline_body cur ~stop:(Some Rbrace) in
      pipelines := (name, pl) :: !pipelines;
      stmt ()
    | Some (Ident "ingress") ->
      ignore (advance cur);
      let name = ident cur "ingress name" in
      expect cur Eq "=";
      let pipe = ident cur "pipeline name" in
      let port =
        match peek cur with
        | Some Lbracket ->
          ignore (advance cur);
          let p = match advance cur with
            | Int p -> p
            | _ -> fail "expected port number"
          in
          expect cur Rbracket "]";
          p
        | _ -> 0
      in
      expect cur Semi ";";
      ingresses := (name, pipe, port) :: !ingresses;
      stmt ()
    | Some (Ident "egress") ->
      ignore (advance cur);
      let name = ident cur "egress name" in
      expect cur Eq "=";
      let first = ident cur "pipeline name" in
      let r = parse_port_ref cur first in
      expect cur Semi ";";
      egresses := (name, r) :: !egresses;
      stmt ()
    | Some (Ident "reach") ->
      ignore (advance cur);
      let a, b = prop_pair () in
      props := Reach (a, b) :: !props;
      stmt ()
    | Some (Ident "isolate") ->
      ignore (advance cur);
      let a, b = prop_pair () in
      props := Isolate (a, b) :: !props;
      stmt ()
    | Some (Ident "temporal") ->
      ignore (advance cur);
      let a, b = prop_pair () in
      props := Temporal (a, b) :: !props;
      stmt ()
    | Some (Ident first) ->
      (* Link: portref -> [dport] pipeline ; *)
      ignore (advance cur);
      let src = parse_port_ref cur first in
      expect cur Arrow "-> in link";
      let dport =
        match peek cur with
        | Some Lbracket ->
          ignore (advance cur);
          let p = match advance cur with
            | Int p -> p
            | _ -> fail "expected port number"
          in
          expect cur Rbracket "]";
          p
        | _ -> 0
      in
      let dst = ident cur "destination pipeline" in
      expect cur Semi ";";
      links := (src, dst, dport) :: !links;
      stmt ()
    | Some _ -> fail "expected a topology statement"
  in
  stmt ();
  (match peek cur with
  | None -> ()
  | Some _ -> fail "trailing input after topology section");
  {
    topo_pipelines = List.rev !pipelines;
    topo_links = List.rev !links;
    topo_ingresses = List.rev !ingresses;
    topo_egresses = List.rev !egresses;
    topo_props = List.rev !props;
  }

(** Parse a configuration that may be either a single pipeline or a
    [topology { ... }] fabric description. *)
let parse_source src =
  let cur = { toks = tokenize src } in
  match cur.toks with
  | Ident "topology" :: (Lbrace :: _ as rest) ->
    cur.toks <- rest;
    Fabric (parse_topology cur)
  | _ -> Single (parse_pipeline_body cur ~stop:None)

let parse src =
  match parse_source src with
  | Single pl -> pl
  | Fabric _ ->
    fail "this configuration declares a topology; use the fabric entry \
          points (vdpverify reach/isolate)"

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  src

let parse_file path = parse (read_file path)
let parse_source_file path = parse_source (read_file path)
