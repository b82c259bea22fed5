(* The Click-like configuration language. *)

module Click = Vdp_click
module F = Vdp_topo.Fabric

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 Parser fuzzing}

   Byte-level mutations of the shipped examples. Whatever the parser
   and the fabric resolver make of a mutant, they either return or
   raise one of the exceptions [vdpverify] reports as a load error. *)

type mutation =
  | Delete of int * int  (** at, length *)
  | Insert of int * string  (** at, bytes *)
  | Splice of int * int * int * int
      (** at, source example, from, length: a chunk of an example *)

let examples =
  lazy
    (let dir = List.find Sys.file_exists [ "../examples"; "examples" ] in
     Sys.readdir dir |> Array.to_list
     |> List.filter (fun f -> Filename.check_suffix f ".click")
     |> List.sort compare
     |> List.map (fun f -> Click.Config.read_file (Filename.concat dir f)))

let example i =
  let exs = Lazy.force examples in
  List.nth exs (i mod List.length exs)

(* Positions and lengths are drawn unbounded and clamped to the text
   they apply to. *)
let mutate src m =
  let clamp at s = at mod (String.length s + 1) in
  let insert at chunk =
    let at = clamp at src in
    String.sub src 0 at ^ chunk ^ String.sub src at (String.length src - at)
  in
  match m with
  | Delete (at, n) ->
    let at = clamp at src in
    let n = min n (String.length src - at) in
    String.sub src 0 at ^ String.sub src (at + n) (String.length src - at - n)
  | Insert (at, bytes) -> insert at bytes
  | Splice (at, i, from, n) ->
    let d = example i in
    let from = clamp from d in
    insert at (String.sub d from (min n (String.length d - from)))

let gen_mutation =
  let open QCheck.Gen in
  let pos = int_bound 100_000 in
  let syntax =
    oneofl (List.of_seq (String.to_seq "{}()[];:,->=/*#\"\n 0123456789ab"))
  in
  frequency
    [
      (3, map2 (fun at n -> Delete (at, n)) pos (int_range 1 16));
      ( 3,
        map2
          (fun at b -> Insert (at, b))
          pos
          (oneof
             [ string_size ~gen:syntax (int_range 1 6);
               string_size ~gen:char (int_range 1 3) ]) );
      ( 2,
        map4
          (fun at s from n -> Splice (at, s, from, n))
          pos small_nat pos (int_range 1 120) );
    ]

let gen_mutant =
  QCheck.Gen.(
    pair (int_bound 1000) (list_size (int_range 1 4) gen_mutation))

let mutant_source (ex, ms) = List.fold_left mutate (example ex) ms

(* Parse, then resolve a fabric; [true] unless something escapes the
   load errors. *)
let loads_or_rejects src =
  match
    match Click.Config.parse_source src with
    | Click.Config.Single _ -> ()
    | Click.Config.Fabric topo -> ignore (F.of_topo topo)
  with
  | () -> true
  | exception
      ( Click.Config.Parse_error _ | Click.Registry.Unknown_class _
      | Click.Registry.Bad_config _ | F.Bad_fabric _ ) ->
    true

let fuzz =
  QCheck.Test.make ~count:1000
    ~name:"mutated examples parse or raise a load error"
    (QCheck.make ~print:mutant_source gen_mutant)
    (fun m -> loads_or_rejects (mutant_source m))

(* [src] fails to load with a parse error whose message holds [text]. *)
let load_error_names text src =
  match Click.Config.parse src with
  | _ -> false
  | exception Click.Config.Parse_error m ->
    let n = String.length text in
    let rec at i =
      i + n <= String.length m && (String.sub m i n = text || at (i + 1))
    in
    at 0

let tests =
  [
    Alcotest.test_case "declarations and chains" `Quick (fun () ->
        let pl =
          Click.Config.parse
            {|
            a :: Paint(1);
            b :: Paint(2);
            a -> b;
            |}
        in
        check_int "two elements" 2 (Click.Pipeline.length pl);
        let n = Click.Pipeline.node pl 0 in
        check_bool "a connects to b" true
          (n.Click.Pipeline.outputs.(0) = Some (1, 0)));
    Alcotest.test_case "anonymous elements in chains" `Quick (fun () ->
        let pl = Click.Config.parse "Paint(1) -> Paint(2) -> Discard;" in
        check_int "three elements" 3 (Click.Pipeline.length pl));
    Alcotest.test_case "port annotations" `Quick (fun () ->
        let pl =
          Click.Config.parse
            {|
            c :: Classifier(12/0800, -);
            c[1] -> Discard;
            c[0] -> Counter;
            |}
        in
        let c = Click.Pipeline.node pl 0 in
        check_bool "port1 -> node1" true
          (c.Click.Pipeline.outputs.(1) = Some (1, 0));
        check_bool "port0 -> node2" true
          (c.Click.Pipeline.outputs.(0) = Some (2, 0)));
    Alcotest.test_case "comments and whitespace" `Quick (fun () ->
        let pl =
          Click.Config.parse
            "// leading comment\n  a :: Counter; // trailing\n a -> Discard;"
        in
        check_int "two" 2 (Click.Pipeline.length pl));
    Alcotest.test_case "nested-paren configs split correctly" `Quick
      (fun () ->
        (* Classifier patterns contain no parens, but commas split at
           the top level only. *)
        let pl =
          Click.Config.parse
            "c :: StaticIPLookup(10.0.0.0/8 0, 0.0.0.0/0 1);"
        in
        let e = (Click.Pipeline.node pl 0).Click.Pipeline.element in
        check_int "two route args" 2 (List.length e.Click.Element.config));
    Alcotest.test_case "parse errors are reported" `Quick (fun () ->
        let bad s =
          try
            ignore (Click.Config.parse s);
            false
          with
          | Click.Config.Parse_error _ -> true
          | Click.Registry.Unknown_class _ -> true
        in
        check_bool "dangling arrow" true (bad "a :: Counter; a ->");
        check_bool "undeclared" true (bad "a -> b;");
        check_bool "unknown class" true (bad "a :: NoSuchThing;");
        check_bool "duplicate name" true
          (bad "a :: Counter; a :: Counter;"));
    Alcotest.test_case "malformed numbers are config errors" `Quick
      (fun () ->
        (* Each input must be rejected as a Parse_error or Bad_config
           whose message names the offending text — never an escaping
           [Failure], never a silent parse. *)
        let rejected ~names src =
          let contains m =
            let n = String.length names and k = String.length m in
            let rec go i = i + n <= k && (String.sub m i n = names || go (i + 1)) in
            go 0
          in
          match Click.Config.parse src with
          | _ -> Alcotest.failf "accepted: %s" src
          | exception Click.Config.Parse_error m ->
            check_bool (Printf.sprintf "%S names %S" m names) true (contains m)
          | exception Click.Registry.Bad_config (_, m) ->
            check_bool (Printf.sprintf "%S names %S" m names) true (contains m)
        in
        rejected ~names:"99999999999999999999"
          "a :: Counter; b :: Discard; a [99999999999999999999] -> b;";
        rejected ~names:"10.0.0.0/x" "r :: StaticIPLookup(10.0.0.0/x 1);";
        rejected ~names:"99999999999999999999/0800"
          "c :: Classifier(99999999999999999999/0800, -);";
        rejected ~names:"10.0.0.0/40" "r :: StaticIPLookup(10.0.0.0/40 1);";
        rejected ~names:"10.0.0.0/-1" "r :: StaticIPLookup(10.0.0.0/-1 1);";
        rejected ~names:"10.1.0.0/99"
          "f :: IPFilter(allow src 10.1.0.0/99, deny all);";
        rejected ~names:"10.0.0.0/33" "r :: RadixIPLookup(10.0.0.0/33 1);";
        rejected ~names:"300.0.0.1" "r :: StaticIPLookup(300.0.0.1/32 1);";
        rejected ~names:"70000" "f :: IPFilter(allow dport 70000, deny all);");
    Alcotest.test_case "double connection rejected" `Quick (fun () ->
        check_bool "names the connection" true
          (load_error_names "a[0] -> [0]Discard@2"
             "a :: Counter; a -> Discard; a -> Discard;"));
    Alcotest.test_case "missing output port rejected" `Quick (fun () ->
        check_bool "names the connection" true
          (load_error_names "a[3] -> [0]Discard@1"
             "a :: Counter; a[3] -> Discard;"));
    Alcotest.test_case "cycle rejected" `Quick (fun () ->
        check_bool "names the connection" true
          (load_error_names "b[0] -> [0]a"
             "a :: Counter; b :: Counter; a -> b; b -> a;"));
    Alcotest.test_case "comments survive inside config parens" `Quick
      (fun () ->
        let pl =
          Click.Config.parse
            {|
            f :: IPFilter(allow src 10.1.0.0/16, // own prefix only
                          deny all);            // default deny
            f -> Discard;
            |}
        in
        let e = (Click.Pipeline.node pl 0).Click.Pipeline.element in
        check_int "two rule args" 2 (List.length e.Click.Element.config));
    Alcotest.test_case "named sub-sections prefix and resolve locally"
      `Quick (fun () ->
        let pl =
          Click.Config.parse
            {|
            acl {
              f :: IPFilter(allow all);
              f -> Discard;   // local name resolves to acl.f
            }
            src :: Counter;
            src -> acl.f;     // qualified reference from outside
            |}
        in
        let names =
          List.init (Click.Pipeline.length pl) (fun i ->
              (Click.Pipeline.node pl i).Click.Pipeline.element
                .Click.Element.name)
        in
        check_bool "section member is prefixed" true
          (List.mem "acl.f" names);
        let find n =
          let rec go i =
            if
              (Click.Pipeline.node pl i).Click.Pipeline.element
                .Click.Element.name = n
            then i
            else go (i + 1)
          in
          go 0
        in
        let f = Click.Pipeline.node pl (find "acl.f") in
        let s = Click.Pipeline.node pl (find "src") in
        check_bool "local chain wired" true
          (f.Click.Pipeline.outputs.(0) <> None);
        check_bool "outside reaches in via qualified name" true
          (s.Click.Pipeline.outputs.(0) = Some (find "acl.f", 0)));
    Alcotest.test_case "parse_source dispatches single vs fabric" `Quick
      (fun () ->
        (match Click.Config.parse_source "a :: Counter; a -> Discard;" with
        | Click.Config.Single pl ->
          check_int "single: two nodes" 2 (Click.Pipeline.length pl)
        | Click.Config.Fabric _ -> Alcotest.fail "expected Single");
        match
          Click.Config.parse_source
            {|
            topology {
              pipeline p { a :: Counter; a -> Discard; }
              ingress in = p;
            }
            |}
        with
        | Click.Config.Fabric t ->
          check_int "fabric: one pipeline" 1
            (List.length t.Click.Config.topo_pipelines);
          check_int "fabric: one ingress" 1
            (List.length t.Click.Config.topo_ingresses)
        | Click.Config.Single _ -> Alcotest.fail "expected Fabric");
    Alcotest.test_case "example configs parse and verify" `Quick (fun () ->
        (* cwd is _build/default/test under dune runtest, the repo root
           when the executable is run by hand. *)
        let find name =
          List.find Sys.file_exists
            [ "../examples/" ^ name; "examples/" ^ name ]
        in
        let pl = Click.Config.parse_file (find "router.click") in
        check_int "router has 11 nodes" 11 (Click.Pipeline.length pl);
        let pl2 = Click.Config.parse_file (find "firewall.click") in
        check_bool "firewall parses" true (Click.Pipeline.length pl2 > 5));
    QCheck_alcotest.to_alcotest ~rand:(Test_batch.qcheck_rand ()) fuzz;
  ]
