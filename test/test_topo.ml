(* The topology fabric: parsing + resolution, concrete cross-pipeline
   pushes with per-pipeline step labels, relational enumeration over
   summaries merged once per node (the merged view against its members,
   also when two domains force it at once), the reach/isolate/temporal
   queries with mandatory witness replay, the fabric's pinned counters,
   and the adversarial scenario generator's ground truth. *)

module B = Vdp_bitvec.Bitvec
module T = Vdp_smt.Term
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

let example_fabric name =
  fabric_of
    (Click.Config.read_file
       (List.find Sys.file_exists [ "../examples/" ^ name; "examples/" ^ name ]))

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
        let fi = Click.Wired.instantiate fab.F.wired in
        let fr =
          Click.Wired.push fi ~pipe:0 ~in_port:0
            (ip_frame ~src:0x0a010101 ~dst:0x0a020202)
        in
        check_bool "ends at lan" true
          ((fr.Click.Wired.pipe, fr.Click.Wired.final)
          = (1, Click.Runtime.Egress 0));
        check_int "one crossing" 1 fr.Click.Wired.crossings;
        let labels =
          List.sort_uniq compare
            (List.map
               (fun (s : Click.Runtime.step) -> s.Click.Runtime.pipeline)
               fr.Click.Wired.steps)
        in
        check_bool "steps labeled by pipeline" true
          (labels = [ "adm"; "fwd" ]);
        check_bool "trace is in execution order" true
          (match fr.Click.Wired.steps with
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
        let fi = Click.Wired.instantiate fab.F.wired in
        let fr =
          Click.Wired.push fi ~pipe:0 ~in_port:0 (ip_frame ~src:1 ~dst:2)
        in
        check_bool "budget final" true
          (match fr.Click.Wired.final with
          | Click.Runtime.Hop_budget_at _ -> true
          | _ -> false));
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
        check_int "merged state count" 8 !states);
  ]

(* {1 Per-summary merging}

   A node's pure-filter segments with equal effects become one segment
   whose condition is their disjunction, factored on shared prefixes.
   On every node of the example and of generated fabrics, the factored
   condition must be equivalent to the flat [Or_i (And cond_i)], every
   member must carry the merged segment's effect key, and no segment
   with state events may be merged. *)

let check_merges rel =
  let module Solver = Vdp_smt.Solver in
  (* One context, so the atoms the groups share are encoded once. *)
  let ctx = Solver.create_ctx () in
  Array.iter
    (Array.iter (fun (e : Summaries.entry) ->
         List.iter
           (function
             | [ _ ] -> ()
             | members ->
               let m = R.merge_members members in
               let factored = T.and_ m.E.cond in
               let flat =
                 T.or_
                   (List.map (fun (s : E.segment) -> T.and_ s.E.cond) members)
               in
               let unsat ts =
                 Solver.push ctx;
                 Solver.assert_terms ctx ts;
                 let r = Solver.check_ctx ctx in
                 Solver.pop ctx;
                 r = Solver.Unsat
               in
               check_bool "factored implies flat" true
                 (unsat [ factored; T.not_ flat ]);
               check_bool "flat implies factored" true
                 (unsat [ T.not_ factored; flat ]);
               List.iter
                 (fun (s : E.segment) ->
                   check_bool "member has the merged effect key" true
                     (R.effect_key s = R.effect_key m);
                   check_bool "no state events merged" true (s.E.kv_log = []))
                 members)
           (R.premerge e.Summaries.result.E.segments)))
    rel.R.summaries

let merge_tests =
  let v = T.bool_var in
  let a = v "a" and b = v "b" and c = v "c" and d = v "d" in
  let seg ?(kv_log = []) ~port cond : E.segment =
    {
      E.cond;
      out_state =
        {
          E.head_delta = 0;
          min_delta = 0;
          len_out = T.var Vdp_symbex.Sstate.len_var 16;
          writes = [];
          havoc = None;
          meta_out = [];
        };
      outcome = E.O_emit port;
      instr_lo = List.length cond;
      instr_hi = 10 * List.length cond;
      kv_log;
      summarized = false;
    }
  in
  [
    Alcotest.test_case "factor: empty member, shared prefix, pairing" `Quick
      (fun () ->
        check_bool "an empty member makes it true" true
          (T.is_true (R.factor [ [ a; b ]; [] ]));
        let f = R.factor [ [ a; b ]; [ a; c ] ] in
        check_bool "shared prefix hoisted" true
          (T.equal f (T.and_ [ a; T.or_ [ b; c ] ]));
        check_bool "prefix is a top-level conjunct" true
          (match f.T.node with
          | T.And ops -> Array.exists (T.equal a) ops
          | _ -> false);
        (* Each head keeps exactly its own lists' tails. *)
        check_bool "tails stay with their heads" true
          (T.equal
             (R.factor [ [ a; b; c ]; [ d; c ]; [ a; d ] ])
             (T.or_
                [ T.and_ [ a; T.or_ [ T.and_ [ b; c ]; d ] ]; T.and_ [ d; c ] ]));
        check_bool "one list is its conjunction" true
          (T.equal (R.factor [ [ c; a ] ]) (T.and_ [ c; a ])));
    Alcotest.test_case "premerge: segment order, state events, envelope"
      `Quick (fun () ->
        let kv_log =
          [
            Vdp_symbex.Sstate.Kv_read
              { store = "m"; key = T.var "k" 8; value = T.var "x" 8; cond = T.tru };
          ]
        in
        let s1 = seg ~port:0 [ a ] and s2 = seg ~port:1 [ b ]
        and s3 = seg ~port:0 [ c; d ] and s4 = seg ~kv_log ~port:0 [ d ]
        and s5 = seg ~port:0 [ a; c ] in
        let groups = R.premerge [ s1; s2; s3; s4; s5 ] in
        check_bool "grouped in first-member order" true
          (List.equal (List.equal ( == )) groups
             [ [ s1; s3; s5 ]; [ s2 ]; [ s4 ] ]);
        let m = R.merge_members [ s1; s3; s5 ] in
        check_bool "disjunction of the members" true
          (m.E.cond = [ T.or_ [ a; T.and_ [ c; d ] ] ]);
        check_int "envelope low" 1 m.E.instr_lo;
        check_int "envelope high" 20 m.E.instr_hi;
        check_bool "a singleton is itself" true (R.merge_members [ s2 ] == s2));
    Alcotest.test_case "merged segments equal their members" `Slow (fun () ->
        Summaries.clear ();
        check_merges
          (R.build ~config:fast_config.Q.engine
             (example_fabric "multi_tenant.click"));
        List.iter
          (fun seed ->
            List.iter
              (fun leak ->
                let sc = Sc.generate ~seed ~leak () in
                check_merges
                  (R.build ~config:fast_config.Q.engine sc.Sc.sc_fab))
              [ `None; `Dropped_deny; `Misordered ])
          [ 1; 2; 3 ]);
    Alcotest.test_case "two domains force one merged view" `Slow (fun () ->
        Summaries.clear ();
        let rel =
          R.build ~config:fast_config.Q.engine
            (example_fabric "multi_tenant.click")
        in
        let force () =
          let views =
            Array.mapi
              (fun pipe per_pipe ->
                Array.mapi (fun node _ -> R.merged rel ~pipe ~node) per_pipe)
              rel.R.summaries
          in
          let r =
            Q.run ~config:fast_config rel (Click.Config.Isolate ("a", "lan_b"))
          in
          (views, Q.verdict_to_string r.Q.verdict, r.Q.paths)
        in
        let other = Domain.spawn force in
        let v1, verdict1, paths1 = force () in
        let v2, verdict2, paths2 = Domain.join other in
        check_bool "the same segment lists" true
          (Array.for_all2 (Array.for_all2 ( == )) v1 v2);
        check_string "the same verdict" verdict1 verdict2;
        check_int "the same paths" paths1 paths2);
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
                 (* Wired.end_to_string renders "crash at app:node ...". *)
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

(* {1 Pinned fabric counters}

   The paths each walk enumerates and the checks a query decides, at
   the default configuration, as the Step-2 counters are pinned in
   [Test_verif]: a change to how the fabric merges or prunes must move
   these on purpose. *)

let pinned_tests =
  [
    Alcotest.test_case "fabric counters pinned" `Slow (fun () ->
        Summaries.clear ();
        Vdp_smt.Solver.Cache.clear Vdp_smt.Solver.shared_cache;
        let cfg = Q.default_config in
        let rel = R.build (example_fabric "multi_tenant.click") in
        let from rel name =
          List.length
            (Q.paths_from (Q.make_qctx rel cfg) (F.ingress rel.R.fab name))
        in
        List.iter
          (fun (name, n) -> check_int ("paths from " ^ name) n (from rel name))
          [ ("a", 57); ("b", 57); ("wan", 88) ];
        let r = Q.run ~config:cfg rel (Click.Config.Reach ("a", "wan_out")) in
        check_int "reach checks" 2 r.Q.checks;
        List.iter
          (fun lan ->
            let r =
              Q.run ~config:cfg rel (Click.Config.Temporal ("wan", lan))
            in
            check_int ("temporal paths to " ^ lan) 62 r.Q.paths)
          [ "lan_a"; "lan_b" ];
        let c = Q.verify_crash ~config:cfg rel in
        check_int "crash paths" 202 c.Q.c_paths;
        check_int "crash bound" 319 c.Q.c_max_instrs;
        let sc = Sc.generate ~tenants:2 ~seed:5 ~leak:`Dropped_deny () in
        check_int "scenario paths from t1" 16 (from (R.build sc.Sc.sc_fab) "t1"));
  ]

(* {1 Honest positive answers}

   A radix FIB is read at a symbolic key, so the model may assume any
   table contents: the feasible flows it yields for reach i -> e0 all
   replay to e1, though 10.0.0.1 does reach e0. The reach is then
   unknown, not "no feasible path", and every fabric flow carries the
   replay's notes on the contents the model assumed. *)

let radix_fabric () =
  fabric_of
    {|
    topology {
      pipeline p {
        cl :: Classifier(12/0800, -);
        rt :: RadixIPLookup(10.0.0.0/8 0, 0.0.0.0/0 1);
        cl[0] -> Strip(14) -> CheckIPHeader -> rt;
        cl[1] -> Discard;
      }
      ingress i = p;
      egress e0 = p.rt[0];
    }
    |}

let honest_tests =
  [
    Alcotest.test_case "reach with only unconfirmed flows is unknown" `Quick
      (fun () ->
        Summaries.clear ();
        let rel = R.build ~config:fast_config.Q.engine (radix_fabric ()) in
        let r =
          Q.run ~config:fast_config rel (Click.Config.Reach ("i", "e0"))
        in
        (match r.Q.verdict with
        | Q.Unknown why ->
          check_bool "names the unconfirmed replay" true
            (Scanf.sscanf_opt why "%d feasible flow(s), none replay-confirmed"
               (fun n -> n > 0)
            = Some true)
        | v -> Alcotest.failf "reach: %s" (Q.verdict_to_string v));
        let r =
          Q.run ~config:fast_config rel (Click.Config.Isolate ("i", "e0"))
        in
        match r.Q.verdict with
        | Q.Fails ((_ :: _ as flows), _) ->
          check_bool "no flow confirms" true
            (List.for_all (fun f -> not f.Q.w_confirmed) flows);
          check_bool "every flow notes the assumed contents" true
            (List.for_all
               (fun f -> f.Q.w_replay.Vdp_verif.Witness.notes <> [])
               flows)
        | v -> Alcotest.failf "isolate: %s" (Q.verdict_to_string v));
  ]

let tests =
  parse_tests @ push_tests @ enum_tests @ merge_tests @ query_tests
  @ scenario_tests @ one_pipe_tests @ pinned_tests @ honest_tests
