(* The compositional verifier: the paper's Fig. 2 story, the IP-router
   proof, counterexample extraction with runtime confirmation, the
   stateful write-back check, reachability, and the monolithic
   baseline. *)

module B = Vdp_bitvec.Bitvec
module T = Vdp_smt.Term
module Ir = Vdp_ir.Types
module P = Vdp_packet.Packet
module Ipv4 = Vdp_packet.Ipv4
module E = Vdp_symbex.Engine
module S = Vdp_symbex.Sstate
module Click = Vdp_click
module V = Vdp_verif.Verifier
module W = Vdp_verif.Witness
module Mono = Vdp_verif.Monolithic
module Kv = Vdp_verif.Kvmodel
module Summaries = Vdp_verif.Summaries

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A config under [test/], from the test directory or the root. *)
let test_pipeline name =
  Click.Config.parse_file
    (List.find Sys.file_exists [ name; "test/" ^ name ])

let router_config =
  {|
  cl :: Classifier(12/0800, -);
  strip :: Strip(14);
  chk :: CheckIPHeader;
  opts :: IPGWOptions(9.9.9.1);
  rt :: StaticIPLookup(10.0.0.0/8 0, 192.168.0.0/16 1, 0.0.0.0/0 2);
  ttl :: DecIPTTL;
  out :: EtherEncap(2048, 02:00:00:00:00:01, 02:00:00:00:00:02);
  cl[0] -> strip -> chk -> opts -> ttl -> rt;
  rt[0] -> out; rt[1] -> out; rt[2] -> out;
  cl[1] -> Discard; chk[1] -> Discard; opts[1] -> Discard; ttl[1] -> Discard;
  |}

let proved r = r.V.verdict = V.Proved

let violations r =
  match r.V.verdict with V.Violated vs -> vs | _ -> []

let fast_config =
  (* Smaller packet bound keeps witness construction cheap in tests. *)
  { V.default_config with
    V.engine = { E.default_config with E.max_len = 128 } }

let tests_unit =
  [
    Alcotest.test_case "fig2: E2 alone crashes, with witness" `Quick
      (fun () ->
        Summaries.clear ();
        let r = V.check_crash_freedom ~config:fast_config
            (Click.El_toy.e2_pipeline ()) in
        let vs = violations r in
        check_bool "violated" true (vs <> []);
        let v =
          match
            List.find_opt
              (fun v ->
                match v.V.outcome with
                | E.O_crash (E.C_assert _) -> true
                | _ -> false)
              vs
          with
          | Some v -> v
          | None -> Alcotest.fail "expected the assert violation"
        in
        check_bool "witness reproduces on runtime" true v.V.confirmed;
        let pkt = v.V.replayed.W.packet in
        check_bool "first byte negative" true (P.get_u8 pkt 0 >= 0x80));
    Alcotest.test_case "fig2: E1 -> E2 is crash-free (composition)" `Quick
      (fun () ->
        Summaries.clear ();
        let r = V.check_crash_freedom ~config:fast_config
            (Click.El_toy.fig2_pipeline ()) in
        check_bool "proved" true (proved r);
        (* E2's suspect existed but was refuted during composition. *)
        check_bool "suspects found in isolation" true (r.V.stats.V.suspects > 0);
        check_bool "all refuted" true (r.V.stats.V.refuted > 0));
    Alcotest.test_case "router pipeline is crash-free" `Slow (fun () ->
        Summaries.clear ();
        let pl = Click.Config.parse router_config in
        let r = V.check_crash_freedom pl in
        check_bool "proved" true (proved r);
        check_bool "many isolated suspects" true (r.V.stats.V.suspects >= 20));
    Alcotest.test_case "summaries are cached per class+config" `Quick
      (fun () ->
        Summaries.clear ();
        let mk name = Click.Registry.make ~name ~cls:"DecIPTTL" ~config:[] in
        let dis name = Click.Registry.make ~name ~cls:"Discard" ~config:[] in
        (* Chain where ttl appears twice; also two discards. *)
        let pl =
          Click.Pipeline.create
            [ mk "a"; mk "b"; dis "d1"; dis "d2" ]
            [ (0, 0, 1, 0); (0, 1, 2, 0); (1, 1, 3, 0) ]
        in
        Summaries.clear ();
        let r = V.check_crash_freedom ~config:fast_config pl in
        check_int "4 elements" 4 r.V.stats.V.elements;
        check_int "2 unique summaries" 2 r.V.stats.V.unique_summaries;
        (* a and b crash on short packets: violations at both nodes. *)
        check_bool "violations found" true (violations r <> []));
    Alcotest.test_case "buggy market element caught with crashing packet"
      `Quick (fun () ->
        Summaries.clear ();
        (* Classifier guards, then the buggy div-by-zero element. *)
        let pl =
          Click.Pipeline.linear
            [
              Click.Registry.make ~name:"cl" ~cls:"Classifier"
                ~config:[ "12/0800" ];
              Click.Registry.make ~name:"strip" ~cls:"Strip" ~config:[ "14" ];
              Click.Registry.make ~name:"chk" ~cls:"CheckIPHeader" ~config:[];
              Click.Registry.make ~name:"q" ~cls:"BuggyQuota"
                ~config:[ "1000" ];
            ]
        in
        let r = V.check_crash_freedom ~config:fast_config pl in
        let vs = violations r in
        check_bool "violation found" true (vs <> []);
        let div0 =
          List.find_opt
            (fun v -> v.V.outcome = E.O_crash E.C_div0)
            vs
        in
        match div0 with
        | Some v ->
          check_bool "confirmed on runtime" true v.V.confirmed;
          (* The witness must be a valid IPv4 frame with TTL 0 — the
             solver had to satisfy the checksum to get it past
             CheckIPHeader. *)
          let q = P.clone v.V.replayed.W.packet in
          P.pull q 14;
          check_bool "valid header" true (Ipv4.header_ok q);
          check_int "ttl zero" 0 (P.get_u8 q 8)
        | None -> Alcotest.fail "expected div-by-zero violation");
    Alcotest.test_case "safe market element certifies" `Quick (fun () ->
        Summaries.clear ();
        let pl =
          Click.Pipeline.linear
            [
              Click.Registry.make ~name:"cl" ~cls:"Classifier"
                ~config:[ "12/0800" ];
              Click.Registry.make ~name:"strip" ~cls:"Strip" ~config:[ "14" ];
              Click.Registry.make ~name:"chk" ~cls:"CheckIPHeader" ~config:[];
              Click.Registry.make ~name:"dpi" ~cls:"SafeDPI"
                ~config:[ "144"; "32" ];
            ]
        in
        let r = V.check_crash_freedom ~config:fast_config pl in
        check_bool "proved" true (proved r));
    Alcotest.test_case "instruction bound is sound on workload" `Slow
      (fun () ->
        Summaries.clear ();
        let pl = Click.Config.parse router_config in
        let r = V.instruction_bound pl in
        let bound =
          match r.V.bound with
          | Some b -> b
          | None -> Alcotest.fail "expected a bound"
        in
        (* No concrete packet may exceed the proved bound. *)
        let inst = Click.Runtime.instantiate pl in
        let st = Random.State.make [| 5 |] in
        for _ = 1 to 2000 do
          let pkt =
            if Random.State.bool st then
              Vdp_packet.Gen.random_frame ~min_len:1 ~max_len:96 st
            else
              Vdp_packet.Gen.corrupt st
                (Vdp_packet.Gen.frame_of_flow (Vdp_packet.Gen.random_flow st))
          in
          let run = Click.Runtime.push inst pkt in
          check_bool "within bound" true
            (run.Click.Runtime.total_instrs <= bound)
        done;
        (* Frames with options exercise the summarised loop. *)
        for i = 1 to 200 do
          let f = Vdp_packet.Gen.random_flow st in
          let options =
            String.concat ""
              [ String.make (i mod 16) '\x01'; "\x07\x07\x04"; "\x00\x00\x00\x00" ]
          in
          let pkt = Vdp_packet.Gen.frame_with_options ~options f in
          let run = Click.Runtime.push inst pkt in
          check_bool "options within bound" true
            (run.Click.Runtime.total_instrs <= bound)
        done);
    Alcotest.test_case "reachability: 10/8 not dropped when well-formed"
      `Slow (fun () ->
        Summaries.clear ();
        let pl = Click.Config.parse router_config in
        (* Assumption: minimal well-formed IPv4 unicast to 10/8 without
           options and ttl > 1 and correct checksum. Build as terms. *)
        let byte j = T.var (S.byte_var j) 8 in
        let len = T.var S.len_var 16 in
        let assume =
          [
            (* Ethernet: IPv4 ethertype *)
            T.eq (byte 12) (T.bv_int ~width:8 0x08);
            T.eq (byte 13) (T.bv_int ~width:8 0x00);
            (* version 4, ihl 5 *)
            T.eq (byte 14) (T.bv_int ~width:8 0x45);
            (* no fragmentation magic needed; total_len = len - 14 *)
            T.eq
              (T.concat (byte 16) (byte 17))
              (T.sub len (T.bv_int ~width:16 14));
            T.ule (T.bv_int ~width:16 34) len;
            T.ule len (T.bv_int ~width:16 128);
            (* ttl > 1 *)
            T.ugt (byte 22) (T.bv_int ~width:8 1);
            (* dst in 10/8 *)
            T.eq (byte 30) (T.bv_int ~width:8 10);
            (* header checksum correct: sum of the ten 16-bit words
               equals 0xffff after folding. Encode via the checksum
               identity: sum16(words) + carry folds = 0xffff. *)
            (let words =
               List.init 10 (fun i ->
                   T.zext 32 (T.concat (byte (14 + (2 * i))) (byte (15 + (2 * i)))))
             in
             let total = List.fold_left T.add (T.bv_int ~width:32 0) words in
             let fold1 =
               T.add
                 (T.band total (T.bv_int ~width:32 0xffff))
                 (T.lshr total (T.bv_int ~width:32 16))
             in
             let fold2 =
               T.add
                 (T.band fold1 (T.bv_int ~width:32 0xffff))
                 (T.lshr fold1 (T.bv_int ~width:32 16))
             in
             T.eq (T.extract ~hi:15 ~lo:0 fold2) (T.bv_int ~width:16 0xffff));
          ]
        in
        let config =
          { V.default_config with
            V.assume;
            V.engine = { E.default_config with E.max_len = 128 } }
        in
        let bad = function
          | V.End_drop _ | V.End_crash _ -> true
          | V.End_egress _ -> false
        in
        let r = V.check_reachability ~config ~bad pl in
        check_bool "proved" true (proved r));
    Alcotest.test_case "reachability finds dropped traffic without assumption"
      `Quick (fun () ->
        Summaries.clear ();
        let pl = Click.El_toy.fig2_pipeline () in
        (* Toy pipeline never drops; E2's crash is infeasible; so 'never
           drop' is proved... while for a Discard pipeline it is not. *)
        let bad = function
          | V.End_drop _ -> true
          | V.End_crash _ | V.End_egress _ -> false
        in
        (* Non-empty frames only: the toys drop zero-length frames. *)
        let nonempty =
          T.ugt (T.var S.len_var 16) (T.bv_int ~width:16 0)
        in
        let config = { fast_config with V.assume = [ nonempty ] } in
        let r = V.check_reachability ~config ~bad pl in
        check_bool "toy never drops" true (proved r);
        let dpl =
          Click.Pipeline.linear
            [ Click.Registry.make ~name:"d" ~cls:"Discard" ~config:[] ]
        in
        let r2 = V.check_reachability ~config:fast_config ~bad dpl in
        check_bool "discard pipeline drops" true (violations r2 <> []));
    Alcotest.test_case "reachability follows the port rewrite on edges"
      `Quick (fun () ->
        (* b is fed on input port 1, where the NAT gateway translates
           inbound traffic back; b[1] is reachable once b's reverse map
           holds the flow, which replay preloads from the model. *)
        Summaries.clear ();
        let pl = test_pipeline "two_nat.click" in
        let b =
          Option.get
            (Array.find_index
               (fun (n : Click.Pipeline.node) ->
                 n.Click.Pipeline.element.Click.Element.name = "b")
               (Click.Pipeline.nodes pl))
        in
        check_bool "egress 3 is b[1]" true
          (Click.Pipeline.egress_index pl ~node:b ~port:1 = Some 3);
        let r =
          V.check_reachability ~config:fast_config
            ~bad:(function V.End_egress 3 -> true | _ -> false)
            pl
        in
        let vs = violations r in
        check_int "violations" 22 (List.length vs);
        List.iter
          (fun (v : V.violation) ->
            check_bool "reproduced on the runtime" true v.V.confirmed)
          vs);
    Alcotest.test_case "monolithic baseline completes on tiny pipeline"
      `Quick (fun () ->
        let pl = Click.El_toy.fig2_pipeline () in
        match Mono.check_crash_freedom pl with
        | Mono.Completed { verdict = `Proved; _ } -> ()
        | Mono.Completed { verdict = `Violated _; _ } ->
          Alcotest.fail "fig2 pipeline is crash-free"
        | Mono.Did_not_finish _ -> Alcotest.fail "tiny pipeline must finish");
    Alcotest.test_case "monolithic baseline DNFs on the options pipeline"
      `Slow (fun () ->
        let pl = Click.Config.parse router_config in
        let engine_config =
          { Mono.default_engine_config with E.max_paths = 20_000 }
        in
        match Mono.check_crash_freedom ~engine_config ~time_limit:60. pl with
        | Mono.Did_not_finish _ -> ()
        | Mono.Completed _ ->
          Alcotest.fail "expected the monolithic baseline to exceed budget");
    Alcotest.test_case "kvmodel: counter overflow is writable" `Quick
      (fun () ->
        Summaries.clear ();
        let prog = Click.El_market.buggy_counter () in
        let summary = E.explore prog in
        (* The crash segment constrains the read value to 0xff. *)
        let crash =
          List.find
            (fun s ->
              match s.E.outcome with
              | E.O_crash (E.C_assert _) -> true
              | _ -> false)
            summary.E.segments
        in
        let read_var =
          List.find_map
            (function
              | S.Kv_read { value; _ } -> Some value
              | _ -> None)
            crash.E.kv_log
          |> Option.get
        in
        (* Bad value 0xff: not the default (0), but writable via the
           increment chain. *)
        (match
           Kv.check_provenance ~summary ~store:"c8" ~default:(B.zero 8)
             ~read_var crash.E.cond
         with
        | Kv.Written _ -> ()
        | Kv.Default_value -> Alcotest.fail "0xff is not the default"
        | Kv.Unwritable -> Alcotest.fail "0xff is writable (254 + 1)");
        (* Impossible value: constrain the read to something no write
           produces AND not default — e.g. a value forbidden by an
           extra constraint n = 0xff && n = 0x7f. *)
        let impossible = T.eq read_var (T.bv_int ~width:8 0x7f) in
        match
          Kv.check_provenance ~summary ~store:"c8" ~default:(B.zero 8)
            ~read_var (impossible :: crash.E.cond)
        with
        | Kv.Unwritable | Kv.Written _ | Kv.Default_value ->
          (* 0x7f & 0xff conflict: must be unwritable *)
          check_bool "conflicting value unwritable" true
            (match
               Kv.check_provenance ~summary ~store:"c8" ~default:(B.zero 8)
                 ~read_var (impossible :: crash.E.cond)
             with
            | Kv.Unwritable -> true
            | _ -> false));
    Alcotest.test_case "witness packets are minimal-effort valid inputs"
      `Quick (fun () ->
        Summaries.clear ();
        (* Strip(20) alone: witness must be shorter than 20 bytes. *)
        let pl =
          Click.Pipeline.linear
            [ Click.Registry.make ~name:"s" ~cls:"Strip" ~config:[ "20" ] ]
        in
        let r = V.check_crash_freedom ~config:fast_config pl in
        match violations r with
        | [ v ] ->
          check_bool "confirmed" true v.V.confirmed;
          check_bool "short" true (P.length v.V.replayed.W.packet < 20)
        | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
  ]

(* {1 Headroom accounting through composition}

   Each element's own summary assumes the full configured headroom, so
   stacked encapsulations are locally safe yet crash concretely once
   their pushes sum past the budget; the composition must carry the
   remaining budget and report the dip as a headroom crash. *)

let encap name =
  Click.Registry.make ~name ~cls:"EtherEncap"
    ~config:[ "2048"; "02:00:00:00:00:01"; "02:00:00:00:00:02" ]

(* 5 x push 14 = 70 > 64: the fifth encap dips. *)
let five_encaps () =
  Click.Pipeline.linear
    (List.init 5 (fun i -> encap (Printf.sprintf "e%d" i)))

let headroom_tests =
  [
    Alcotest.test_case "stacked encapsulations exhaust headroom" `Quick
      (fun () ->
        Summaries.clear ();
        (* Replay must reproduce the Headroom_exhausted crash on the
           runtime. *)
        let r = V.check_crash_freedom ~config:fast_config (five_encaps ()) in
        (match violations r with
        | [] -> Alcotest.fail "expected a headroom violation"
        | vs ->
          List.iter
            (fun (v : V.violation) ->
              check_bool "headroom crash" true
                (v.V.outcome = E.O_crash E.C_headroom);
              check_bool "reproduced on the runtime" true v.V.confirmed)
            vs);
        (* 4 x push 14 = 56 <= 64 stays safe. *)
        Summaries.clear ();
        let pl4 =
          Click.Pipeline.linear (List.init 4 (fun i ->
              encap (Printf.sprintf "f%d" i)))
        in
        check_bool "4 encaps proved" true
          (proved (V.check_crash_freedom ~config:fast_config pl4)));
    Alcotest.test_case "reachability sees the headroom crash" `Quick
      (fun () ->
        (* The fifth encap's dip ends the path in a crash on every walk,
           not only on crash freedom's. *)
        Summaries.clear ();
        let r =
          V.check_reachability ~config:fast_config
            ~bad:(function V.End_crash _ -> true | _ -> false)
            (five_encaps ())
        in
        match violations r with
        | [ v ] ->
          check_bool "headroom crash" true
            (v.V.outcome = E.O_crash E.C_headroom);
          check_bool "reproduced on the runtime" true v.V.confirmed
        | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
    Alcotest.test_case "bound on a headroom-dipping path is inexact" `Quick
      (fun () ->
        (* The runtime crashes partway through the dipping segment, so
           the path claims only an interval reaching back to the state
           before it, and the bound is not exact. *)
        Summaries.clear ();
        let r = V.instruction_bound ~config:fast_config (five_encaps ()) in
        check_bool "up to the dipping segment's end" true (r.V.bound = Some 25);
        check_bool "inexact" false r.V.exact;
        match r.V.b_replayed with
        | Some w -> check_bool "witness confirmed" true (W.confirmed w)
        | None -> Alcotest.fail "expected a bound witness");
    Alcotest.test_case "strip/encap alternation replenishes the budget"
      `Quick (fun () ->
        Summaries.clear ();
        (* encap/strip pairs net to zero: 6 elements, never below 50
           remaining, proved — and the static budget pass must keep the
           dip checks off this pipeline (same check count as suspects
           demand, no headroom violations). *)
        let pl =
          Click.Pipeline.linear
            [
              encap "e0";
              Click.Registry.make ~name:"s0" ~cls:"Strip" ~config:[ "14" ];
              encap "e1";
              Click.Registry.make ~name:"s1" ~cls:"Strip" ~config:[ "14" ];
              encap "e2";
              Click.Registry.make ~name:"s2" ~cls:"Strip" ~config:[ "14" ];
            ]
        in
        check_bool "proved" true
          (proved (V.check_crash_freedom ~config:fast_config pl)));
    Alcotest.test_case "configured headroom budget is respected" `Quick
      (fun () ->
        (* Same 3-encap pipeline, verified under different budgets.
           The concrete runtime always allocates the default headroom,
           so the witnesses of a non-default budget may replay
           unconfirmed; only the verdicts are checked. *)
        let with_headroom h =
          {
            fast_config with
            V.engine = { E.default_config with E.max_len = 128; E.headroom = h };
          }
        in
        let pl () =
          Click.Pipeline.linear (List.init 3 (fun i ->
              encap (Printf.sprintf "g%d" i)))
        in
        Summaries.clear ();
        check_bool "42 bytes suffice for 3 pushes" true
          (proved (V.check_crash_freedom ~config:(with_headroom 42) (pl ())));
        Summaries.clear ();
        let r = V.check_crash_freedom ~config:(with_headroom 41) (pl ()) in
        check_bool "41 bytes do not" true
          (List.exists
             (fun (v : V.violation) ->
               v.V.outcome = E.O_crash E.C_headroom)
             (violations r)));
  ]

(* Step 2's counters on the example configs. Pruning decides which
   successors are built and which suspect paths reach the solver, so a
   change to how pruning is computed must leave every count here as it
   is. *)
let example name =
  Click.Config.parse_file
    (List.find Sys.file_exists [ "../examples/" ^ name; "examples/" ^ name ])

let certified = { V.default_config with V.certify = true }

let pin_crash name ~states ~checks ?segments ?folded ?(solves = false) () =
  Alcotest.test_case (Printf.sprintf "step-2 counters pinned: %s crash" name)
    `Slow (fun () ->
      Summaries.clear ();
      Vdp_smt.Solver.Cache.clear Vdp_smt.Solver.shared_cache;
      Vdp_smt.Solver.reset_stats ();
      let r = V.check_crash_freedom ~config:certified (example name) in
      check_bool "proved" true (proved r);
      (* CheckIPHeader's checksum field is free on these paths: its
         equation is solved by model completion, not bit-blasted. *)
      if solves then
        check_bool "checksum words solved" true
          (Vdp_smt.Solver.stats.Vdp_smt.Solver.solved_words >= 1);
      check_int "composite states" states r.V.stats.V.composite_paths;
      check_int "suspect checks" checks r.V.stats.V.suspect_checks;
      Option.iter
        (fun n -> check_int "segments" n r.V.stats.V.segments_total)
        segments;
      match r.V.cert with
      | None -> Alcotest.fail "no certification summary"
      | Some c ->
        check_int "none uncertified" 0 c.Vdp_cert.Certificate.failed;
        Option.iter
          (fun n -> check_int "certified folded" n c.Vdp_cert.Certificate.folded)
          folded)

let pinned_counters =
  [
    pin_crash "router.click" ~states:283 ~checks:783 ~solves:true ();
    pin_crash "firewall.click" ~states:34 ~checks:671 ~segments:213 ();
    pin_crash "netflow_nat.click" ~states:288 ~checks:3933 ~folded:3468 ();
    Alcotest.test_case "step-2 counters pinned: router.click bound" `Slow
      (fun () ->
        Summaries.clear ();
        Vdp_smt.Solver.Cache.clear Vdp_smt.Solver.shared_cache;
        let r = V.instruction_bound ~config:certified (example "router.click") in
        check_bool "bound" true (r.V.bound = Some 2668);
        check_int "composite states" 472 r.V.b_stats.V.composite_paths;
        (* Candidates are decided longest first, and the longest one,
           at 2668, is feasible. *)
        check_int "suspect checks" 1 r.V.b_stats.V.suspect_checks);
  ]

(* Composition soundness oracle: the composite verdicts must agree with
   brute-force concrete execution on random packets. If the verifier
   proved crash-freedom, no packet may crash the runtime. *)
let no_crash_after_proof =
  QCheck.Test.make ~count:60 ~name:"proved pipeline never crashes (fuzz)"
    (QCheck.make ~print:string_of_int QCheck.Gen.int)
    (fun seed ->
      let pl = Click.Config.parse router_config in
      let inst = Click.Runtime.instantiate pl in
      let st = Random.State.make [| seed |] in
      let ok = ref true in
      for _ = 1 to 50 do
        let pkt = Vdp_packet.Gen.random_frame ~min_len:1 ~max_len:90 st in
        match (Click.Runtime.push inst pkt).Click.Runtime.final with
        | Click.Runtime.Crashed_at _ -> ok := false
        | _ -> ()
      done;
      !ok)

let tests =
  tests_unit @ headroom_tests @ pinned_counters
  @ List.map QCheck_alcotest.to_alcotest [ no_crash_after_proof ]
