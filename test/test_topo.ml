(* The topology fabric: parsing + resolution, concrete cross-pipeline
   pushes with per-pipeline step labels, relational enumeration, the
   reach/isolate/temporal queries with mandatory witness replay, and
   the adversarial scenario generator's ground truth. *)

module B = Vdp_bitvec.Bitvec
module Ir = Vdp_ir.Types
module Bld = Vdp_ir.Builder
module E = Vdp_symbex.Engine
module Click = Vdp_click
module P = Vdp_packet.Packet
module Summaries = Vdp_verif.Summaries
module F = Vdp_topo.Fabric
module R = Vdp_topo.Relation
module Q = Vdp_topo.Query
module Sc = Vdp_topo.Scenario

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Small packets keep the solver fast; every fabric under test parses
   well within 192 bytes. *)
let fast_config =
  { Q.default_config with
    Q.engine = { E.default_config with E.max_len = 192 } }

let fabric_of src =
  match Click.Config.parse_source src with
  | Click.Config.Fabric topo -> F.of_topo topo
  | Click.Config.Single _ -> Alcotest.fail "expected a topology"

(* {1 Parsing and resolution} *)

let parse_tests =
  [
    Alcotest.test_case "topology parses and resolves" `Quick (fun () ->
        let fab =
          fabric_of
            {|
            // a two-pipeline fabric
            topology {
              pipeline left {
                f :: IPFilter(allow src 10.1.0.0/16, deny all);
              }
              pipeline right {
                rt :: StaticIPLookup(10.0.0.0/8 0, 0.0.0.0/0 1);
              }
              left[0] -> right;  // wire the filter into the router
              ingress in = left;
              egress lan = right[0];
              egress wan = right[1];
              reach in -> wan;
              isolate in -> lan;
            }
            |}
        in
        check_int "two pipelines" 2 (Array.length fab.F.pipes);
        check_string "first pipeline" "left" fab.F.pipes.(0).F.p_name;
        check_int "one link" 1 (Hashtbl.length fab.F.links);
        check_bool "link left[0] -> right" true
          (Hashtbl.find_opt fab.F.links (0, 0) = Some (1, 0));
        check_bool "ingress resolves" true (F.ingress fab "in" = (0, 0));
        check_bool "egress resolves" true (F.egress fab "wan" = (1, 1));
        check_bool "egress name lookup" true
          (F.egress_name fab ~pipe:1 ~eg:0 = Some "lan");
        check_int "two props" 2 (List.length fab.F.props));
    Alcotest.test_case "element-level egress references" `Quick (fun () ->
        let fab =
          fabric_of
            {|
            topology {
              pipeline p {
                c :: Classifier(12/0800, -);
                c[0] -> Counter;
              }
              ingress i = p;
              egress nonip = p.c[1];
              egress counted = p[1];
            }
            |}
        in
        (* c[1] is unwired, so it is an egress point; the Counter's
           output is the other. Element-level and index-level egress
           references must agree with the pipeline's own numbering. *)
        check_int "two egress points" 2
          (Array.length fab.F.pipes.(0).F.p_egress);
        check_bool "element ref resolves" true
          (F.egress fab "nonip" = (0, 0));
        check_bool "index ref resolves" true
          (F.egress fab "counted" = (0, 1)));
    Alcotest.test_case "bad topologies are rejected" `Quick (fun () ->
        let bad src =
          try
            ignore (fabric_of src);
            false
          with F.Bad_fabric _ | Click.Config.Parse_error _ -> true
        in
        check_bool "unknown link target" true
          (bad "topology { pipeline p { Counter; } p[0] -> q; }");
        check_bool "linked egress cannot be a fabric egress" true
          (bad
             {|topology {
                 pipeline p { Counter; }
                 pipeline q { Counter; }
                 p[0] -> q;
                 egress e = p[0];
               }|});
        check_bool "prop over unknown ingress" true
          (bad
             {|topology {
                 pipeline p { Counter; }
                 egress e = p[0];
                 reach nosuch -> e;
               }|});
        check_bool "double-linked egress" true
          (bad
             {|topology {
                 pipeline p { Counter; }
                 pipeline q { Counter; }
                 p[0] -> q;
                 p[0] -> q;
               }|}));
    Alcotest.test_case "tag roundtrip" `Quick (fun () ->
        check_bool "roundtrip" true
          (F.parse_tag (F.tag ~pipe:3 ~node:17) = Some (3, 17));
        check_bool "foreign tags rejected" true (F.parse_tag "n4" = None);
        check_bool "garbage rejected" true (F.parse_tag "pxny" = None));
  ]

(* {1 Concrete pushes across links} *)

(* An Ethernet+IPv4 frame with the given source/destination and
   protocol, long enough for the port window checks. *)
let ip_frame ~src ~dst =
  let data = Bytes.make 64 '\000' in
  Bytes.set data 12 '\x08';
  (* ethertype 0800 *)
  let w32 off v =
    for i = 0 to 3 do
      Bytes.set data (off + i)
        (Char.chr ((v lsr (8 * (3 - i))) land 0xff))
    done
  in
  Bytes.set data 14 '\x45';
  (* version 4, ihl 5 *)
  Bytes.set data 16 '\x00';
  Bytes.set data 17 '\x32';
  (* total length 50 <= frame *)
  Bytes.set data 23 '\x06';
  (* protocol TCP *)
  w32 26 src;
  w32 30 dst;
  (* Valid IP header checksum: CheckIPHeader verifies it. *)
  let sum = ref 0 in
  for w = 0 to 9 do
    sum :=
      !sum
      + (Char.code (Bytes.get data (14 + (2 * w))) lsl 8)
      + Char.code (Bytes.get data (14 + (2 * w) + 1))
  done;
  let folded = ref !sum in
  while !folded > 0xffff do
    folded := (!folded land 0xffff) + (!folded lsr 16)
  done;
  let ck = lnot !folded land 0xffff in
  Bytes.set data 24 (Char.chr (ck lsr 8));
  Bytes.set data 25 (Char.chr (ck land 0xff));
  P.create (Bytes.to_string data)

let push_tests =
  [
    Alcotest.test_case "packets cross links with labeled steps" `Quick
      (fun () ->
        let fab =
          fabric_of
            {|
            topology {
              pipeline adm {
                cl :: Classifier(12/0800, -);
                cl[0] -> Strip(14) -> CheckIPHeader;
                cl[1] -> Discard;
              }
              pipeline fwd {
                rt :: StaticIPLookup(10.0.0.0/8 0, 0.0.0.0/0 1);
              }
              adm[0] -> fwd;
              ingress in = adm;
              egress lan = fwd[0];
              egress wan = fwd[1];
            }
            |}
        in
        let fi = F.instantiate fab in
        let fr =
          F.push fi ~pipe:0 ~in_port:0
            (ip_frame ~src:0x0a010101 ~dst:0x0a020202)
        in
        check_bool "ends at lan" true (fr.F.f_final = F.F_egress (1, 0));
        check_int "one crossing" 1 fr.F.f_crossings;
        let labels =
          List.sort_uniq compare
            (List.map
               (fun (s : Click.Runtime.step) -> s.Click.Runtime.pipeline)
               fr.F.f_steps)
        in
        check_bool "steps labeled by pipeline" true
          (labels = [ "adm"; "fwd" ]);
        check_bool "trace is in execution order" true
          (match fr.F.f_steps with
          | first :: _ -> first.Click.Runtime.pipeline = "adm"
          | [] -> false));
    Alcotest.test_case "standalone pipelines keep unlabeled steps" `Quick
      (fun () ->
        let pl = Click.Config.parse "Counter -> Discard;" in
        let inst = Click.Runtime.instantiate pl in
        let run =
          Click.Runtime.push inst (ip_frame ~src:1 ~dst:2)
        in
        check_bool "no pipeline label" true
          (List.for_all
             (fun (s : Click.Runtime.step) -> s.Click.Runtime.pipeline = "")
             run.Click.Runtime.steps));
    Alcotest.test_case "link loops trip the crossing budget" `Quick
      (fun () ->
        let fab =
          fabric_of
            {|
            topology {
              pipeline a { Counter; }
              pipeline b { Counter; }
              a[0] -> b;
              b[0] -> a;
              ingress i = a;
            }
            |}
        in
        let fi = F.instantiate fab in
        let fr = F.push fi ~pipe:0 ~in_port:0 (ip_frame ~src:1 ~dst:2) in
        check_bool "budget final" true
          (match fr.F.f_final with F.F_budget _ -> true | _ -> false));
  ]

(* {1 Relational enumeration} *)

let enum_tests =
  [
    Alcotest.test_case "enumeration spans links and merges variants"
      `Slow
      (fun () ->
        Summaries.clear ();
        let fab =
          fabric_of
            {|
            topology {
              pipeline adm {
                cl :: Classifier(12/0800, -);
                chk :: CheckIPHeader;
                cl[0] -> Strip(14) -> chk;
                chk[1] -> Discard;
                cl[1] -> Discard;
              }
              pipeline fwd {
                rt :: StaticIPLookup(10.0.0.0/8 0, 0.0.0.0/0 1);
              }
              adm[0] -> fwd;
              ingress in = adm;
              egress lan = fwd[0];
              egress wan = fwd[1];
            }
            |}
        in
        let rel = R.build ~config:fast_config.Q.engine fab in
        let ends = Hashtbl.create 8 in
        let states = ref 0 in
        List.iter
          (fun (fp : R.fpath) ->
            incr states;
            (match fp.R.fp_end with
            | R.E_egress (pi, e) -> Hashtbl.replace ends ("egress", pi, e) ()
            | R.E_drop (pi, n) -> Hashtbl.replace ends ("drop", pi, n) ()
            | R.E_crash (pi, n, _) -> Hashtbl.replace ends ("crash", pi, n) ());
            (* Cross-pipeline trails must be tagged per pipe. *)
            check_bool "trail starts in adm" true
              (List.hd (R.trail fp) = (0, 0)))
          (Q.paths_from (Q.make_qctx rel fast_config) (0, 0));
        check_bool "reaches both fabric egresses" true
          (Hashtbl.mem ends ("egress", 1, 0)
          && Hashtbl.mem ends ("egress", 1, 1));
        (* Disjunctive sibling merging keeps the state count far below
           the raw parse-variant product (30+ CheckIPHeader variants
           alone). *)
        check_bool "merged state count is small" true (!states <= 40));
  ]

(* {1 Queries with replay} *)

(* A filtered fabric in both a correct and a deliberately leaky
   (misordered rules: allow-all shadows the deny) configuration. *)
let filtered_fabric ~leaky =
  let rules =
    if leaky then "allow all, deny dst 10.2.0.0/16"
    else "deny dst 10.2.0.0/16, allow all"
  in
  fabric_of
    (Printf.sprintf
       {|
       topology {
         pipeline adm {
           cl :: Classifier(12/0800, -);
           chk :: CheckIPHeader;
           cl[0] -> Strip(14) -> chk;
           chk[1] -> Discard;
           cl[1] -> Discard;
         }
         pipeline core {
           fw :: IPFilter(%s);
           rt :: StaticIPLookup(10.2.0.0/16 1, 0.0.0.0/0 0);
           fw -> rt;
         }
         adm[0] -> core;
         ingress in = adm;
         egress wan = core[0];
         egress lan2 = core[1];
         reach in -> wan;
         isolate in -> lan2;
       }
       |}
       rules)

let query_tests =
  [
    Alcotest.test_case "reach: witness must replay end-to-end" `Slow
      (fun () ->
        Summaries.clear ();
        let fab = filtered_fabric ~leaky:false in
        let rel = R.build ~config:fast_config.Q.engine fab in
        let r = Q.run ~config:fast_config rel (Click.Config.Reach ("in", "wan")) in
        (match r.Q.verdict with
        | Q.Holds (Some f) ->
          check_bool "confirmed" true f.Q.w_confirmed;
          check_bool "cold witness" true (f.Q.w_prime = None);
          check_bool "lands on wan" true
            (f.Q.w_end = "egress core[0] (wan)")
        | v -> Alcotest.failf "reach: %s" (Q.verdict_to_string v)));
    Alcotest.test_case "isolate: deny rule proves, shadowed rule leaks"
      `Slow
      (fun () ->
        Summaries.clear ();
        let safe = filtered_fabric ~leaky:false in
        let rel = R.build ~config:fast_config.Q.engine safe in
        let r =
          Q.run ~config:fast_config rel (Click.Config.Isolate ("in", "lan2"))
        in
        (match r.Q.verdict with
        | Q.Holds None -> ()
        | v -> Alcotest.failf "safe isolate: %s" (Q.verdict_to_string v));
        Summaries.clear ();
        let leaky = filtered_fabric ~leaky:true in
        let rel = R.build ~config:fast_config.Q.engine leaky in
        let r =
          Q.run ~config:fast_config rel (Click.Config.Isolate ("in", "lan2"))
        in
        match r.Q.verdict with
        | Q.Fails (flows, _) ->
          check_bool "at least one flow" true (flows <> []);
          check_bool "every breach replay-confirmed" true
            (List.for_all (fun f -> f.Q.w_confirmed) flows);
          check_bool "report is trusted" true (Q.all_confirmed r)
        | v -> Alcotest.failf "leaky isolate: %s" (Q.verdict_to_string v));
    Alcotest.test_case
      "temporal: NAT return path needs a priming packet" `Slow
      (fun () ->
        Summaries.clear ();
        let fab =
          fabric_of
            {|
            topology {
              pipeline t {
                f :: IPFilter(allow src 10.1.0.0/16, deny all);
              }
              pipeline gw {
                nat :: NATGateway(203.0.113.1);
                rt :: StaticIPLookup(10.1.0.0/16 0, 0.0.0.0/0 1);
                nat[1] -> rt;
                nat[2] -> Discard;
              }
              t[0] -> [0] gw;
              ingress inside = t;
              ingress wan = gw[1];
              egress wan_out = gw[0];
              egress lan = gw[1];
              temporal wan -> lan;
            }
            |}
        in
        let rel = R.build ~config:fast_config.Q.engine fab in
        let r =
          Q.run ~config:fast_config rel (Click.Config.Temporal ("wan", "lan"))
        in
        match r.Q.verdict with
        | Q.Holds (Some f) ->
          check_int "depth two" 2 r.Q.depth;
          check_bool "primed" true (f.Q.w_prime <> None);
          check_bool "primed via the inside ingress" true
            (match f.Q.w_prime with
            | Some (n, _) -> n = "inside"
            | None -> false);
          check_bool "confirmed end-to-end" true f.Q.w_confirmed
        | v -> Alcotest.failf "temporal: %s" (Q.verdict_to_string v));
    Alcotest.test_case "fabric crash-freedom: proof and confirmed crash"
      `Slow
      (fun () ->
        Summaries.clear ();
        (* The safe filtered fabric is crash-free, with a real bound. *)
        let fab = filtered_fabric ~leaky:false in
        let rel = R.build ~config:fast_config.Q.engine fab in
        let c = Q.verify_crash ~config:fast_config rel in
        (match c.Q.c_verdict with
        | Q.Holds None -> ()
        | v -> Alcotest.failf "safe fabric: %s" (Q.verdict_to_string v));
        check_bool "instruction bound is positive" true (c.Q.c_max_instrs > 0);
        (* BuggyQuota divides by the TTL byte: a zero-TTL packet crashes
           the downstream pipeline, and the crash must replay there. *)
        Summaries.clear ();
        let fab =
          fabric_of
            {|
            topology {
              pipeline adm {
                cl :: Classifier(12/0800, -);
                chk :: CheckIPHeader;
                cl[0] -> Strip(14) -> chk;
                chk[1] -> Discard;
                cl[1] -> Discard;
              }
              pipeline app {
                q :: BuggyQuota(1000);
              }
              adm[0] -> app;
              ingress in = adm;
              egress out = app[0];
              reach in -> out;
            }
            |}
        in
        let rel = R.build ~config:fast_config.Q.engine fab in
        let c = Q.verify_crash ~config:fast_config rel in
        match c.Q.c_verdict with
        | Q.Fails (flows, _) ->
          check_bool "at least one crash flow" true (flows <> []);
          check_bool "every crash replay-confirmed" true
            (List.for_all (fun f -> f.Q.w_confirmed) flows);
          check_bool "crash lands in the app pipeline" true
            (List.exists
               (fun f ->
                 (* ffinal_to_string renders "crash at app:node ...". *)
                 let n = String.length f.Q.w_end in
                 n >= 12 && String.sub f.Q.w_end 0 12 = "crash at app")
               flows)
        | v -> Alcotest.failf "buggy fabric: %s" (Q.verdict_to_string v));
  ]

(* {1 A pipeline is a one-pipe fabric}

   Without private state, boot and adversarial state coincide, so a
   one-pipe fabric's crash freedom must agree with the pipeline
   verifier's: same verdict, same crash sites, and an instruction bound
   no lower than the pipeline's. *)

let one_pipe_tests =
  [
    Alcotest.test_case "one-pipe fabric crash freedom matches the verifier"
      `Slow
      (fun () ->
        let module V = Vdp_verif.Verifier in
        let agree src =
          Summaries.clear ();
          let pl = Click.Config.parse src in
          let fab =
            F.of_topo
              {
                Click.Config.topo_pipelines = [ ("p", pl) ];
                topo_links = [];
                topo_ingresses = [ ("in", "p", 0) ];
                topo_egresses = [];
                topo_props = [];
              }
          in
          let rel = R.build ~config:fast_config.Q.engine fab in
          let c = Q.verify_crash ~config:fast_config rel in
          let r = V.check_crash_freedom ~config:fast_config pl in
          let b = V.instruction_bound ~config:fast_config pl in
          let fabric_sites =
            match c.Q.c_verdict with
            | Q.Fails (flows, _) ->
              check_bool "every crash replay-confirmed" true
                (List.for_all (fun f -> f.Q.w_confirmed) flows);
              List.sort_uniq compare
                (List.map
                   (fun f -> Scanf.sscanf f.Q.w_end "crash at p:node %d" Fun.id)
                   flows)
            | Q.Holds None -> []
            | v -> Alcotest.failf "fabric: %s" (Q.verdict_to_string v)
          in
          let sites =
            match r.V.verdict with
            | V.Violated vs ->
              List.sort_uniq compare (List.map (fun v -> v.V.node) vs)
            | V.Proved -> []
            | V.Unknown m -> Alcotest.failf "pipeline: unknown (%s)" m
          in
          Alcotest.(check (list int)) "same crash sites" sites fabric_sites;
          (match b.V.bound with
          | Some bd ->
            check_bool "fabric bound covers the pipeline bound" true
              (c.Q.c_max_instrs >= bd)
          | None -> Alcotest.fail "no pipeline bound");
          sites
        in
        check_bool "unguarded strip crashes" true
          (agree "Strip(14) -> CheckIPHeader -> DecIPTTL;" <> []);
        check_bool "guarded pipeline is crash-free" true
          (agree
             {|
               cl :: Classifier(12/0800, -);
               cl[0] -> Strip(14) -> CheckIPHeader -> DecIPTTL;
               cl[1] -> Discard;
             |}
          = []));
  ]

(* {1 Scenario generator ground truth} *)

let scenario_tests =
  [
    Alcotest.test_case "generator plants what it claims" `Quick (fun () ->
        let sc = Sc.generate ~tenants:3 ~seed:7 ~leak:`Dropped_deny () in
        check_int "tenant count" 3 sc.Sc.sc_tenants;
        check_int "planted pairs" 2 (List.length sc.Sc.sc_planted);
        check_int "safe pairs" 4 (List.length sc.Sc.sc_safe);
        (* Same seed, same fabric text; different seed, different text
           (decorations and victim differ). *)
        let sc' = Sc.generate ~tenants:3 ~seed:7 ~leak:`Dropped_deny () in
        check_bool "deterministic" true
          (sc.Sc.sc_source = sc'.Sc.sc_source);
        let none = Sc.generate ~tenants:3 ~seed:7 ~leak:`None () in
        check_int "control plants nothing" 0
          (List.length none.Sc.sc_planted));
    Alcotest.test_case "planted leak is detected and confirmed" `Slow
      (fun () ->
        Summaries.clear ();
        let sc = Sc.generate ~tenants:2 ~seed:3 ~leak:`Misordered () in
        let score = Sc.check ~config:fast_config sc in
        check_int "all planted pairs detected" score.Sc.planted
          score.Sc.detected;
        check_bool "breaches replay-confirmed" true score.Sc.confirmed;
        check_int "no false leaks" 0 score.Sc.false_leaks;
        check_int "no unknowns" 0 score.Sc.unknowns);
  ]

let tests =
  parse_tests @ push_tests @ enum_tests @ query_tests @ scenario_tests
  @ one_pipe_tests
