(* The compiled fast path and its batch schedule: both engines must be
   observationally identical — same finals, same per-element
   steps, same instruction counts, same packet bytes, same key/value
   state — on the same workloads. Plus the robustness fixes that ride
   along: RadixIPLookup across the full /0–/32 prefix range (checked
   against the Lpm trie reference), hop-budget exhaustion as a counted
   final instead of an exception, and the interpreter's assign-width
   check. *)

module B = Vdp_bitvec.Bitvec
module Ir = Vdp_ir.Types
module Interp = Vdp_ir.Interp
module Compile = Vdp_ir.Compile
module Stores = Vdp_ir.Stores
module Lpm = Vdp_tables.Lpm
module P = Vdp_packet.Packet
module Gen = Vdp_packet.Gen
module Click = Vdp_click
module R = Click.Runtime
module El = Click.El_lookup

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let find name =
  List.find Sys.file_exists [ "../examples/" ^ name; "examples/" ^ name ]

let engines = [ R.Scalar; R.Compiled ]

let final_str f = Format.asprintf "%a" R.pp_final f

(* {1 RadixIPLookup vs the Lpm trie, /0 through /32} *)

(* A bare IPv4 header window: the lookup elements read dst at offset
   16 relative to head, i.e. they run post-Strip. *)
let ip_pkt dst =
  let b = Bytes.make 20 '\000' in
  Bytes.set b 16 (Char.chr ((dst lsr 24) land 0xff));
  Bytes.set b 17 (Char.chr ((dst lsr 16) land 0xff));
  Bytes.set b 18 (Char.chr ((dst lsr 8) land 0xff));
  Bytes.set b 19 (Char.chr (dst land 0xff));
  P.create (Bytes.to_string b)

let rand32 st =
  (Random.State.bits st lsl 16) lxor Random.State.bits st land 0xffffffff

(* Random route table with every prefix length reachable, prefixes
   masked to their length, unique (prefix, len) pairs so the reference
   and the element agree on tie-breaking. *)
let random_routes st n =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  while Hashtbl.length seen < n do
    let plen = Random.State.int st 33 in
    let prefix = rand32 st land El.mask_of_len plen in
    if not (Hashtbl.mem seen (prefix, plen)) then begin
      Hashtbl.replace seen (prefix, plen) ();
      let gw = if Random.State.bool st then rand32 st else 0 in
      let port = Random.State.int st 8 in
      out := { El.prefix; plen; gw; port } :: !out
    end
  done;
  !out

let check_lookup_agrees ~msg trie inst addr =
  let expect = Lpm.lookup trie addr in
  let pkt = ip_pkt addr in
  let r = R.push inst pkt in
  match (expect, r.R.final) with
  | Some route, R.Egress p ->
    check_int (msg ^ ": port") route.El.port p;
    check_int (msg ^ ": gateway in W0") route.El.gw pkt.P.w0
  | None, R.Dropped_at 0 -> ()
  | _ ->
    Alcotest.failf "%s: addr %#x: trie says %s, element says %s" msg addr
      (match expect with
      | Some r -> Printf.sprintf "port %d" r.El.port
      | None -> "no route")
      (final_str r.R.final)

let radix_differential engine () =
  let st = Random.State.make [| 0xd1f; R.max_hops |] in
  for table = 0 to 14 do
    let routes = random_routes st (5 + Random.State.int st 25) in
    let trie =
      Lpm.of_list (List.map (fun r -> (r.El.prefix, r.El.plen, r)) routes)
    in
    let pl =
      Click.Pipeline.linear
        [
          Click.Element.make ~name:"rt" ~cls:"RadixIPLookup" ~config:[]
            (El.radix_ip_lookup routes);
        ]
    in
    let inst = R.instantiate ~engine pl in
    let msg = Printf.sprintf "table %d" table in
    List.iter
      (fun r ->
        (* The prefix itself, its last covered address, and the first
           address past the range — the off-by-one spots. *)
        check_lookup_agrees ~msg trie inst r.El.prefix;
        check_lookup_agrees ~msg trie inst
          (r.El.prefix lor (lnot (El.mask_of_len r.El.plen) land 0xffffffff));
        check_lookup_agrees ~msg trie inst
          ((r.El.prefix + (1 lsl (32 - min 31 r.El.plen))) land 0xffffffff))
      routes;
    for _ = 1 to 50 do
      check_lookup_agrees ~msg trie inst (rand32 st)
    done
  done

let radix_fixed () =
  (* The prefix lengths the pre-fix element rejected (/17–/31) plus
     the /0 default route, with deliberate spill overlaps. *)
  let routes =
    List.map El.parse_route
      [
        "0.0.0.0/0 9.9.9.9 0";
        "10.0.0.0/8 1";
        "10.128.0.0/17 2";
        "10.128.64.0/18 3";
        "10.128.0.0/24 4";
        "10.128.0.128/25 5";
        "10.128.0.129/32 6";
        "203.0.113.0/31 7";
      ]
  in
  let trie =
    Lpm.of_list (List.map (fun r -> (r.El.prefix, r.El.plen, r)) routes)
  in
  List.iter
    (fun engine ->
      let pl =
        Click.Pipeline.linear
          [
            Click.Element.make ~name:"rt" ~cls:"RadixIPLookup" ~config:[]
              (El.radix_ip_lookup routes);
          ]
      in
      let inst = R.instantiate ~engine pl in
      let msg = "fixed/" ^ R.engine_name engine in
      let ip = Vdp_packet.Ipv4.addr_of_string in
      List.iter
        (check_lookup_agrees ~msg trie inst)
        [
          ip "8.8.8.8"; (* default *)
          ip "10.1.2.3"; (* /8 *)
          ip "10.128.1.1"; (* /17 *)
          ip "10.128.65.0"; (* /18 *)
          ip "10.128.0.77"; (* /24 *)
          ip "10.128.0.200"; (* /25 *)
          ip "10.128.0.129"; (* /32 *)
          ip "10.128.0.128"; (* /25, one below the host route *)
          ip "203.0.113.1"; (* /31 *)
          ip "203.0.113.2"; (* default again *)
        ])
    engines

(* {1 Scalar vs compiled: exact observational equality} *)

let window p = Bytes.sub_string p.P.buf p.P.head p.P.len

let meta p = (p.P.port, p.P.color, p.P.w0, p.P.w1)

(* Every store of every node, as sorted printable entries. *)
let store_snapshot inst =
  let pl = inst.R.pipeline in
  List.init (Click.Pipeline.length pl) (fun ni ->
      let prog =
        (Click.Pipeline.node pl ni).Click.Pipeline.element
          .Click.Element.program
      in
      List.map
        (fun (d : Ir.store_decl) ->
          let es =
            Stores.entries inst.R.stores.(ni) d.Ir.store_name
            |> List.map (fun (k, v) ->
                   (B.to_string_hex k, B.to_string_hex v))
            |> List.sort compare
          in
          (d.Ir.store_name, es))
        prog.Ir.stores)

let check_same_runs name (runs_a, snap_a) (runs_b, snap_b) =
  List.iteri
    (fun i ((ra : R.run), (pa : P.t), ((rb : R.run), (pb : P.t))) ->
      let fail fmt = Alcotest.failf ("%s: packet %d: " ^^ fmt) name i in
      if ra.R.final <> rb.R.final then
        fail "finals differ: %s vs %s" (final_str ra.R.final)
          (final_str rb.R.final);
      if ra.R.total_instrs <> rb.R.total_instrs then
        fail "instruction counts differ: %d vs %d" ra.R.total_instrs
          rb.R.total_instrs;
      if ra.R.steps <> rb.R.steps then fail "step traces differ";
      if window pa <> window pb then fail "packet bytes differ";
      if meta pa <> meta pb then fail "packet metadata differs")
    (List.map2 (fun (ra, pa) rb -> (ra, pa, rb)) runs_a runs_b);
  if snap_a <> snap_b then
    Alcotest.failf "%s: final store state differs" name

let run_engine ?(in_port = fun _ -> 0) pl engine pkts =
  let inst = R.instantiate ~engine pl in
  let runs =
    List.mapi
      (fun i p ->
        let q = P.clone p in
        (R.push ~in_port:(in_port i) inst q, q))
      pkts
  in
  (runs, store_snapshot inst)

let nat_config =
  {|
    cl :: Classifier(12/0800, -);
    strip :: Strip(14);
    chk :: CheckIPHeader;
    flow :: FlowCounter;
    nat :: IPRewriter(203.0.113.7);
    cks :: SetIPChecksum;
    out :: EtherEncap(2048, 02:00:00:00:00:01, 02:00:00:00:00:02);
    cl[0] -> strip -> chk -> flow -> nat -> cks -> out;
    cl[1] -> Discard; chk[1] -> Discard; nat[1] -> cks;
    |}

let engine_differential name pl () =
  let pkts = Gen.workload ~seed:3 ~nflows:8 ~corrupt_ratio:0.2 300 in
  check_same_runs
    (Printf.sprintf "%s scalar-vs-compiled" name)
    (run_engine pl R.Scalar pkts)
    (run_engine pl R.Compiled pkts);
  (* The aggregate driver must agree with itself across engines too. *)
  let stats engine =
    let st =
      R.run_workload
        (R.instantiate ~engine pl)
        (List.map P.clone pkts)
    in
    R.(st.sent, st.egressed, st.dropped, st.crashed, st.hop_budget,
       st.instrs, st.max_instrs)
  in
  check_bool
    (Printf.sprintf "%s aggregate stats compiled" name)
    true
    (stats R.Compiled = stats R.Scalar)

(* {1 Every registry element, compiled and interpreted}

   One sample configuration per element class; a class without one
   fails the test, so new elements are covered. Each runs alone on
   Ethernet frames, the same frames stripped to their IP header, IP
   frames with options, ARP requests and random bytes, arriving on
   input ports 0 and 1. *)

let sample_configs =
  let mac1 = "02:00:00:00:00:01" and mac2 = "02:00:00:00:00:02" in
  let routes = [ "10.0.0.0/8 0"; "192.168.0.0/16 10.0.0.254 1"; "0.0.0.0/0 2" ] in
  [
    ("ARPResponder", [ "10.0.0.1"; mac1 ]);
    ("BuggyCounter", []);
    ("BuggyNAT", [ "203.0.113.7" ]);
    ("BuggyPeek", []);
    ("BuggyQuota", [ "3" ]);
    ("CheckIPHeader", []);
    ("CheckLength", [ "60" ]);
    ("CheckPaint", [ "3" ]);
    ("Classifier", [ "12/0800"; "12/0806"; "-" ]);
    ("Counter", []);
    ("DecIPTTL", []);
    ("Discard", []);
    ("EtherEncap", [ "2048"; mac1; mac2 ]);
    ("EtherRewrite", [ mac1; mac2 ]);
    ("FlowCounter", []);
    ("HashSwitch", [ "12"; "8"; "3" ]);
    ("ICMPError", [ "10.0.0.1"; "11"; "0" ]);
    ("IPFilter", [ "deny proto tcp dport 22"; "allow src 10.0.0.0/8"; "deny all" ]);
    ("IPGWOptions", [ "9.9.9.1" ]);
    ("IPRewriter", [ "203.0.113.7" ]);
    ("NATGateway", [ "203.0.113.7" ]);
    ("Paint", [ "3" ]);
    ("RadixIPLookup", routes);
    ("RoundRobinSwitch", [ "3" ]);
    ("SafeDPI", [ "171"; "24" ]);
    ("SetIPChecksum", []);
    ("StaticIPLookup", routes);
    ("Strip", [ "14" ]);
    ("Unstrip", [ "14" ]);
  ]

let element_traffic () =
  let st = Random.State.make [| 17 |] in
  let frames = Gen.workload ~seed:17 ~nflows:6 ~corrupt_ratio:0.2 40 in
  let stripped =
    List.map
      (fun p ->
        let q = P.clone p in
        if P.length q >= 14 then P.pull q 14;
        q)
      frames
  in
  let with_options =
    List.init 6 (fun i ->
        let q =
          Gen.frame_with_options
            ~options:(String.init (4 * (i mod 3 + 1)) (fun j -> Char.chr (j + i)))
            (Gen.random_flow st)
        in
        P.pull q 14;
        q)
  in
  let arp target_ip =
    P.create
      (Vdp_packet.Ethernet.header
         ~dst:(Vdp_packet.Ethernet.mac_of_string "ff:ff:ff:ff:ff:ff")
         ~src:(Vdp_packet.Ethernet.mac_of_string "02:00:00:00:00:07")
         ~ethertype:0x0806
      ^ Vdp_packet.Arp.build
          {
            Vdp_packet.Arp.op = Vdp_packet.Arp.op_request;
            sender_mac = Vdp_packet.Ethernet.mac_of_string "02:00:00:00:00:07";
            sender_ip = Vdp_packet.Ipv4.addr_of_string "10.0.0.7";
            target_mac = String.make 6 '\000';
            target_ip = Vdp_packet.Ipv4.addr_of_string target_ip;
          })
  in
  let random = List.init 30 (fun _ -> Gen.random_frame ~max_len:96 st) in
  frames @ stripped @ with_options
  @ [ arp "10.0.0.1"; arp "10.0.0.2"; arp "10.0.0.1" ]
  @ random @ frames

let registry_differential () =
  let pkts = element_traffic () in
  List.iter
    (fun cls ->
      let config =
        match List.assoc_opt cls sample_configs with
        | Some c -> c
        | None -> Alcotest.failf "no sample configuration for %s" cls
      in
      let pl =
        Click.Pipeline.linear [ Click.Registry.make ~name:"x" ~cls ~config ]
      in
      let in_port i = i mod 2 in
      check_same_runs
        (cls ^ " scalar-vs-compiled")
        (run_engine ~in_port pl R.Scalar pkts)
        (run_engine ~in_port pl R.Compiled pkts))
    (Click.Registry.classes ())

(* {1 Reset and load_state on the compiled engine}

   Compiled closures bind their stores' tables once, at instantiate;
   [reset] and [load_state] must reach those same tables. *)

let node_of_class pl cls =
  let nodes = Click.Pipeline.nodes pl in
  let rec go i =
    if nodes.(i).Click.Pipeline.element.Click.Element.cls = cls then i
    else go (i + 1)
  in
  go 0

let state_roundtrip () =
  let pl = Click.Config.parse nat_config in
  let flow = node_of_class pl "FlowCounter" and nat = node_of_class pl "IPRewriter" in
  let st = Random.State.make [| 12 |] in
  let flows = Array.init 3 (fun _ -> Gen.random_flow st) in
  let bv = B.of_int in
  let flow_key f =
    B.concat
      (B.concat (B.concat (bv ~width:32 f.Gen.src_ip) (bv ~width:32 f.Gen.dst_ip))
         (bv ~width:8 f.Gen.proto))
      (bv ~width:32 ((f.Gen.src_port lsl 16) lor f.Gen.dst_port))
  in
  let loaded =
    [
      (flow, "flows",
       [ (flow_key flows.(0), bv ~width:32 41); (flow_key flows.(1), bv ~width:32 7) ]);
      (nat, "nat_map",
       [ (B.concat (bv ~width:32 flows.(0).Gen.src_ip)
            (bv ~width:16 flows.(0).Gen.src_port),
          bv ~width:16 5000) ]);
      (nat, "nat_next", [ (B.zero 1, bv ~width:16 2000) ]);
    ]
  in
  let warmup = Gen.workload ~seed:5 ~nflows:8 ~corrupt_ratio:0.1 200 in
  let next = List.map (fun i -> Gen.frame_of_flow flows.(i)) [ 0; 1; 2; 0; 2 ] in
  let steps engine =
    let inst = R.instantiate ~engine pl in
    List.iter (fun p -> ignore (R.push inst (P.clone p))) warmup;
    R.reset inst;
    check_int "flows cleared by reset" 0
      (List.length (Stores.entries inst.R.stores.(flow) "flows"));
    R.load_state inst loaded;
    let after_load = store_snapshot inst in
    let runs =
      List.map
        (fun p ->
          let q = P.clone p in
          (R.push inst q, q))
        next
    in
    (inst, after_load, runs)
  in
  let scalar, scalar_loaded, scalar_runs = steps R.Scalar in
  let compiled, compiled_loaded, compiled_runs = steps R.Compiled in
  check_bool "same state after load" true (scalar_loaded = compiled_loaded);
  check_same_runs "reset+load scalar-vs-compiled"
    (scalar_runs, store_snapshot scalar)
    (compiled_runs, store_snapshot compiled);
  (* The compiled engine saw exactly the loaded state: the loaded
     counts went on counting and the loaded mapping was used. *)
  let count f =
    List.assoc_opt (flow_key f)
      (List.map (fun (k, v) -> (k, B.to_int_trunc v))
         (Stores.entries compiled.R.stores.(flow) "flows"))
  in
  check_bool "loaded count 41 went on" true (count flows.(0) = Some 43);
  check_bool "loaded count 7 kept" true (count flows.(1) = Some 8);
  check_bool "new flow counted from 0" true (count flows.(2) = Some 2);
  let sport (_, q) = P.get_be q 34 2 in
  check_int "loaded NAT mapping used" 5000 (sport (List.hd compiled_runs));
  check_int "allocation from loaded nat_next" 2000
    (sport (List.nth compiled_runs 1));
  check_int "next allocation" 2001 (sport (List.nth compiled_runs 2))

(* {1 Random programs at every width: compiled ≡ interpreter}

   Well-typed straight-line blocks over registers of 1-61, 62-122 and
   123-200 bits (and the widths concatenation and extraction derive
   from them), ending in a branch, run on both engines over the same
   packets and store state. Constants lean toward zero, one, all ones,
   the sign bit and shift amounts around the width, so division by
   zero, over-wide shifts and signed corner cases come up often; load
   and store offsets straddle the packet window. *)

let rand_bv st w =
  match Random.State.int st 7 with
  | 0 -> B.zero w
  | 1 -> B.one w
  | 2 -> B.ones w
  | 3 -> B.shl (B.one w) (w - 1)
  | 4 -> B.of_int ~width:w (w - 2 + Random.State.int st 5)
  | _ ->
    B.extract ~hi:(w - 1) ~lo:0
      (B.of_bytes_be
         (String.init ((w + 7) / 8) (fun _ ->
              Char.chr (Random.State.int st 256))))

let rand_width st =
  match Random.State.int st 4 with
  | 0 -> 1 + Random.State.int st 61
  | 1 -> 62 + Random.State.int st 61
  | 2 -> 123 + Random.State.int st 78
  | _ -> [| 1; 8; 16; 32; 61; 62; 64; 122; 123 |].(Random.State.int st 9)

(* Private and static stores with narrow and wide keys and values, so
   every table shape is read (and every private one written). *)
let random_stores =
  let bv w n = B.of_int ~width:w n in
  [
    Ir.store ~name:"rn" ~key_width:16 ~val_width:16 ~kind:Ir.Static
      ~default:(bv 16 3) ~init:[ (bv 16 1, bv 16 4) ] ();
    Ir.store ~name:"nn" ~key_width:16 ~val_width:16 ~kind:Ir.Private
      ~default:(bv 16 7) ~init:[ (bv 16 1, bv 16 2) ] ();
    Ir.store ~name:"wn" ~key_width:104 ~val_width:32 ~kind:Ir.Private
      ~default:(B.zero 32) ();
    Ir.store ~name:"nw" ~key_width:8 ~val_width:150 ~kind:Ir.Private
      ~default:(B.ones 150) ();
    Ir.store ~name:"ww" ~key_width:130 ~val_width:70 ~kind:Ir.Private
      ~default:(B.zero 70) ~init:[ (B.ones 130, bv 70 9) ] ();
    Ir.store ~name:"ro" ~key_width:90 ~val_width:62 ~kind:Ir.Static
      ~default:(bv 62 3)
      ~init:[ (B.zero 90, B.ones 62); (B.ones 90, bv 62 5) ] ();
  ]

type gen = {
  st : Random.State.t;
  mutable widths : int list;  (** register widths, newest first *)
  defined : (int, int list) Hashtbl.t;  (** written registers by width *)
}

let pick st l = List.nth l (Random.State.int st (List.length l))

let fresh g w =
  g.widths <- w :: g.widths;
  List.length g.widths - 1

let defined g w = Option.value (Hashtbl.find_opt g.defined w) ~default:[]

(* A width some register already has, or a new one. *)
let some_width g =
  if Hashtbl.length g.defined > 0 && Random.State.bool g.st then
    pick g.st (List.of_seq (Hashtbl.to_seq_keys g.defined))
  else rand_width g.st

(* A written register, a never-written one (it reads as zero), or a
   constant. *)
let operand g w =
  match defined g w with
  | _ :: _ as rs when Random.State.int g.st 3 > 0 -> Ir.Reg (pick g.st rs)
  | _ ->
    if Random.State.int g.st 10 = 0 then Ir.Reg (fresh g w)
    else Ir.Const (rand_bv g.st w)

(* Pick the destination after the operands, so that overwriting a
   register may also overwrite one of them. *)
let dest g w =
  match defined g w with
  | _ :: _ as rs when Random.State.int g.st 4 = 0 -> pick g.st rs
  | rs ->
    let r = fresh g w in
    Hashtbl.replace g.defined w (r :: rs);
    r

(* Mostly inside a packet of 32 or more bytes, sometimes past its end. *)
let offset g =
  match Random.State.int g.st 5 with
  | 0 -> operand g 16
  | 1 -> Ir.Const (B.of_int ~width:16 (Random.State.int g.st 48))
  | _ -> Ir.Const (B.of_int ~width:16 (Random.State.int g.st 16))

let random_instr g =
  let st = g.st in
  let assign w rhs = Ir.Assign (dest g w, rhs) in
  match Random.State.int st 16 with
  | 0 ->
    let w = some_width g in
    assign w (Ir.Move (operand g w))
  | 1 ->
    let w = some_width g in
    assign w (Ir.Unop (pick st Ir.[ Not; Neg ], operand g w))
  | 2 | 3 | 4 ->
    let w = some_width g in
    let op =
      pick st
        Ir.[ Add; Sub; Mul; Udiv; Urem; Sdiv; Srem; And; Or; Xor; Shl; Lshr;
             Ashr ]
    in
    let a = operand g w in
    assign w (Ir.Binop (op, a, operand g w))
  | 5 ->
    let w = some_width g in
    let op = pick st Ir.[ Eq; Ne; Ult; Ule; Slt; Sle ] in
    let a = operand g w in
    assign 1 (Ir.Cmp (op, a, operand g w))
  | 6 ->
    let w = some_width g in
    let c = operand g 1 in
    let a = operand g w in
    assign w (Ir.Select (c, a, operand g w))
  | 7 ->
    let wv = some_width g in
    let lo = Random.State.int st wv in
    let hi = lo + Random.State.int st (wv - lo) in
    assign (hi - lo + 1) (Ir.Extract (hi, lo, operand g wv))
  | 8 ->
    let wa = some_width g and wb = some_width g in
    let wa = min wa (max 1 (256 - wb)) in
    let a = operand g wa in
    assign (wa + wb) (Ir.Concat (a, operand g wb))
  | 9 ->
    let wv = some_width g in
    let w = max wv (min 256 (wv + Random.State.int st 100)) in
    let v = operand g wv in
    assign w (if Random.State.bool st then Ir.Zext (w, v) else Ir.Sext (w, v))
  | 10 ->
    let n = 1 + Random.State.int st 16 in
    let off = offset g in
    Ir.Load (dest g (8 * n), off, n)
  | 11 ->
    let n = 1 + Random.State.int st 16 in
    let off = offset g in
    Ir.Store (off, operand g (8 * n), n)
  | 12 ->
    let d = pick st random_stores in
    let key = operand g d.Ir.key_width in
    Ir.Kv_read (dest g d.Ir.val_width, d.Ir.store_name, key)
  | 13 ->
    let d =
      pick st (List.filter (fun d -> d.Ir.kind = Ir.Private) random_stores)
    in
    let key = operand g d.Ir.key_width in
    Ir.Kv_write (d.Ir.store_name, key, operand g d.Ir.val_width)
  | 14 -> (
    let m = pick st Ir.[ Port; Color; W0; W1 ] in
    match Random.State.int st 3 with
    | 0 -> Ir.Meta_set (m, operand g (Ir.meta_width m))
    | 1 -> Ir.Meta_get (dest g (Ir.meta_width m), m)
    | _ -> Ir.Load_len (dest g 16))
  | _ -> (
    match Random.State.int st 3 with
    | 0 -> Ir.Pull (Random.State.int st 6)
    | 1 -> Ir.Push (Random.State.int st 6)
    | _ -> Ir.Take (Ir.Const (B.of_int ~width:16 (Random.State.int st 64))))

(* Make every written register observable: write it, keyed by its
   index, to the private store of its width. *)
let observe g =
  Hashtbl.fold
    (fun w rs acc ->
      List.map
        (fun r ->
          Ir.Kv_write
            (Printf.sprintf "obs%d" w, Ir.Const (B.of_int ~width:16 r), Ir.Reg r))
        rs
      @ acc)
    g.defined []

let random_program st =
  let g = { st; widths = []; defined = Hashtbl.create 16 } in
  let block term =
    let instrs = List.init (Random.State.int st 30) (fun _ -> random_instr g) in
    let instrs = instrs @ observe g in
    { Ir.instrs; term = term () }
  in
  let b0 = block (fun () -> Ir.Branch (operand g 1, 1, 2)) in
  let b1 = block (fun () -> Ir.Emit 0) in
  let b2 = block (fun () -> pick st Ir.[ Emit 1; Drop; Abort "end" ]) in
  let obs =
    List.map
      (fun w ->
        Ir.store ~name:(Printf.sprintf "obs%d" w) ~key_width:16 ~val_width:w
          ~kind:Ir.Private ~default:(B.zero w) ())
      (List.sort_uniq compare (List.of_seq (Hashtbl.to_seq_keys g.defined)))
  in
  {
    Ir.name = "random";
    reg_widths = Array.of_list (List.rev g.widths);
    blocks = [| b0; b1; b2 |];
    stores = random_stores @ obs;
    nports = 2;
  }

let random_packet st =
  let p =
    P.create ~headroom:(Random.State.int st 8)
      (String.init
         (if Random.State.int st 4 = 0 then Random.State.int st 32
          else 32 + Random.State.int st 17)
         (fun _ ->
           Char.chr (Random.State.int st 256)))
  in
  p.P.port <- Random.State.int st 256;
  p.P.color <- Random.State.int st 256;
  p.P.w0 <- Random.State.bits st;
  p.P.w1 <- Random.State.bits st land 0xffffffff;
  p

let random_case =
  QCheck.make
    ~print:(fun (prog, _, budget) ->
      Printf.sprintf "budget %d\n%s" budget
        (Vdp_ir.Pp.program_to_string prog))
    (fun st ->
      let prog = random_program st in
      (* Before each packet, config churn may rewrite static entries. *)
      let churn () =
        List.filter_map
          (fun (d : Ir.store_decl) ->
            if d.Ir.kind = Ir.Static && Random.State.int st 3 = 0 then
              Some (d, rand_bv st d.Ir.key_width, rand_bv st d.Ir.val_width)
            else None)
          random_stores
      in
      let pkts = List.init 4 (fun _ -> (churn (), random_packet st)) in
      let budget =
        if Random.State.int st 8 = 0 then 1 + Random.State.int st 60
        else Interp.default_budget
      in
      (prog, pkts, budget))

let entries prog stores =
  List.map
    (fun (d : Ir.store_decl) ->
      Stores.entries stores d.Ir.store_name
      |> List.map (fun (k, v) -> (B.to_string_hex k, B.to_string_hex v))
      |> List.sort compare)
    prog.Ir.stores

let same_packet (a : P.t) (b : P.t) =
  Bytes.equal a.P.buf b.P.buf && a.P.head = b.P.head && a.P.len = b.P.len
  && meta a = meta b

(* The QCHECK_SEED run, or a fixed one: tier-1 runs stay reproducible. *)
let qcheck_rand () =
  Random.State.make
    [| Option.fold ~none:14 ~some:int_of_string (Sys.getenv_opt "QCHECK_SEED") |]

let compiled_matches_interp =
  QCheck.Test.make ~count:400 ~name:"compiled = interpreter, random wide programs"
    random_case (fun (prog, pkts, budget) ->
      let si = Stores.init prog.Ir.stores and sc = Stores.init prog.Ir.stores in
      let exec = Compile.compile ~budget prog sc in
      List.for_all
        (fun (churn, p) ->
          List.iter
            (fun (d, k, v) -> Vdp_ir.Static_data.set d.Ir.init k v)
            churn;
          let pi = P.clone p and pc = P.clone p in
          let ri = Interp.run ~budget prog si pi in
          let rc = exec pc in
          if ri <> rc then
            QCheck.Test.fail_reportf "interp %a (%d instrs), compiled %a (%d)"
              Ir.pp_outcome ri.Interp.outcome ri.Interp.instr_count
              Ir.pp_outcome rc.Interp.outcome rc.Interp.instr_count;
          if not (same_packet pi pc) then
            QCheck.Test.fail_reportf "packets differ after %a" Ir.pp_outcome
              ri.Interp.outcome;
          if entries prog si <> entries prog sc then
            QCheck.Test.fail_reportf "stores differ after %a" Ir.pp_outcome
              ri.Interp.outcome;
          true)
        pkts)

(* {1 Hop budget as a counted final} *)

let pass name = Click.Registry.make ~name ~cls:"Strip" ~config:[ "0" ]

let cyclic () =
  Click.Pipeline.create
    [ pass "a"; pass "b" ]
    [ (0, 0, 1, 0); (1, 0, 0, 0) ]

let hop_budget_scalar () =
  let inst = R.instantiate (cyclic ()) in
  let r = R.push inst (P.create "x") in
  (match r.R.final with
  | R.Hop_budget_at _ -> ()
  | f -> Alcotest.failf "expected hop-budget final, got %s" (final_str f));
  (* Counted in aggregate stats, not raised. *)
  let st =
    R.run_workload
      (R.instantiate (cyclic ()))
      (List.init 5 (fun _ -> P.create "x"))
  in
  check_int "sent" 5 st.R.sent;
  check_int "hop_budget" 5 st.R.hop_budget;
  check_int "crashed" 0 st.R.crashed

let hop_budget_compiled_rejects_cycles () =
  Alcotest.check_raises "compiled rejects cycles"
    (Invalid_argument "Pipeline: cycle detected")
    (fun () -> ignore (R.instantiate ~engine:R.Compiled (cyclic ())))

let hop_budget_long_chain () =
  (* An acyclic chain longer than the budget: every engine must stop
     at the same node with the same final. *)
  let n = R.max_hops + 40 in
  let pl =
    Click.Pipeline.linear
      (List.init n (fun i -> pass (Printf.sprintf "s%d" i)))
  in
  let finals =
    List.map
      (fun engine ->
        let inst = R.instantiate ~engine pl in
        (R.push inst (P.create "x")).R.final)
      engines
  in
  List.iter
    (fun f ->
      match f with
      | R.Hop_budget_at ni -> check_int "budget node" (R.max_hops + 1) ni
      | f -> Alcotest.failf "expected hop-budget final, got %s" (final_str f))
    finals

(* {1 Interpreter assign-width check} *)

let interp_width_check () =
  let bad =
    {
      Ir.name = "bad";
      reg_widths = [| 8 |];
      blocks =
        [|
          {
            Ir.instrs =
              [ Ir.Assign (0, Ir.Move (Ir.Const (B.of_int ~width:16 5))) ];
            term = Ir.Drop;
          };
        |];
      stores = [];
      nports = 1;
    }
  in
  Alcotest.check_raises "width mismatch detected"
    (Invalid_argument "Interp: bad: assign produces width 16, r0 has width 8")
    (fun () -> ignore (Interp.run bad (Stores.init []) (P.create "x")))

let tests =
  [
    Alcotest.test_case "radix vs trie, random /0-/32 (scalar)" `Quick
      (radix_differential R.Scalar);
    Alcotest.test_case "radix vs trie, random /0-/32 (compiled)" `Quick
      (radix_differential R.Compiled);
    Alcotest.test_case "radix fixed cases, all engines" `Quick radix_fixed;
    Alcotest.test_case "engines agree on router.click" `Quick (fun () ->
        engine_differential "router"
          (Click.Config.parse_file (find "router.click"))
          ());
    Alcotest.test_case "engines agree on firewall.click" `Quick (fun () ->
        engine_differential "firewall"
          (Click.Config.parse_file (find "firewall.click"))
          ());
    Alcotest.test_case "engines agree on NetFlow+NAT state" `Quick (fun () ->
        engine_differential "nat" (Click.Config.parse nat_config) ());
    Alcotest.test_case "hop budget is a final, not an exception" `Quick
      hop_budget_scalar;
    Alcotest.test_case "compiled engine rejects cyclic pipelines" `Quick
      hop_budget_compiled_rejects_cycles;
    Alcotest.test_case "engine names: scalar and compiled only" `Quick
      (fun () ->
        List.iter
          (fun e ->
            check_bool (R.engine_name e) true
              (R.engine_of_string (R.engine_name e) = Some e))
          engines;
        check_bool "batched is not an engine" true
          (R.engine_of_string "batched" = None));
    Alcotest.test_case "hop budget agrees across engines" `Quick
      hop_budget_long_chain;
    Alcotest.test_case "interpreter rejects width-mismatched assigns" `Quick
      interp_width_check;
    Alcotest.test_case "every registry element: compiled = scalar" `Quick
      registry_differential;
    Alcotest.test_case "compiled engine sees reset and loaded state" `Quick
      state_roundtrip;
    QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) compiled_matches_interp;
  ]
