(* Witness replay and the differential oracle (Witness module): random
   packets are pushed through the concrete runtime and walked through
   the symbolic summaries side by side — any disagreement on the
   element path, the key/value state, the packet contents or the
   instruction counts is a verifier bug. Violation witnesses must
   replay to the claimed outcome from the recovered initial state. *)

module B = Vdp_bitvec.Bitvec
module E = Vdp_symbex.Engine
module Click = Vdp_click
module V = Vdp_verif.Verifier
module W = Vdp_verif.Witness
module Summaries = Vdp_verif.Summaries
module Pool = Vdp_verif.Pool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let find name =
  List.find Sys.file_exists [ "../examples/" ^ name; "examples/" ^ name ]

let assert_clean (r : W.fuzz_report) =
  List.iter
    (fun (i, m) -> Alcotest.failf "packet %d disagreed: %s" i m)
    r.W.f_failures

(* The stateful NetFlow+NAT chain from the bench suite: per-flow
   counters and a rewriter whose port mappings persist across packets,
   so the walk exercises the key/value mirror, not just headers. *)
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

let guard cls config =
  Click.Pipeline.linear
    [
      Click.Registry.make ~name:"cl" ~cls:"Classifier" ~config:[ "12/0800" ];
      Click.Registry.make ~name:"strip" ~cls:"Strip" ~config:[ "14" ];
      Click.Registry.make ~name:"chk" ~cls:"CheckIPHeader" ~config:[];
      Click.Registry.make ~name:"x" ~cls ~config;
    ]

let fast_config =
  { V.default_config with
    V.engine = { E.default_config with E.max_len = 128 } }

let violations r =
  match r.V.verdict with V.Violated vs -> vs | _ -> []

(* Every violation must carry a replay that confirmed concretely. *)
let assert_all_confirmed name (r : V.report) =
  let vs = violations r in
  check_bool (name ^ ": violations found") true (vs <> []);
  List.iter
    (fun (v : V.violation) ->
      check_bool (name ^ ": confirmed") true v.V.confirmed;
      check_bool (name ^ ": replay status") true (W.confirmed v.V.replayed))
    vs;
  check_int
    (name ^ ": every replay confirmed")
    r.V.stats.V.replays r.V.stats.V.replays_confirmed

let differential_tests =
  [
    Alcotest.test_case "router.click: 500 packets, zero disagreements"
      `Slow (fun () ->
        Summaries.clear ();
        let pl = Click.Config.parse_file (find "router.click") in
        let r = W.differential ~seed:7 ~count:500 pl in
        assert_clean r;
        check_int "packets run" 500 r.W.f_packets;
        check_bool "hops walked" true (r.W.f_hops > 500));
    Alcotest.test_case "stateful NAT pipeline: 500 packets" `Slow
      (fun () ->
        Summaries.clear ();
        let pl = Click.Config.parse nat_config in
        let r = W.differential ~seed:3 ~count:500 pl in
        assert_clean r;
        check_int "packets run" 500 r.W.f_packets;
        (* The stateful walk must be exact, never approximate: every
           key/value read is pinned from the mirrored store. *)
        check_int "no approximate hops" 0 r.W.f_approx);
    Alcotest.test_case "differential under 4 domains matches" `Slow
      (fun () ->
        Summaries.clear ();
        let pl = Click.Config.parse_file (find "router.click") in
        let seq = W.differential ~seed:7 ~count:500 pl in
        Summaries.clear ();
        let par =
          Pool.with_pool 4 (fun pool ->
              W.differential ~pool ~seed:7 ~count:500 pl)
        in
        assert_clean par;
        check_int "same packets" seq.W.f_packets par.W.f_packets;
        check_int "same hops" seq.W.f_hops par.W.f_hops;
        check_int "same approx hops" seq.W.f_approx par.W.f_approx);
    Alcotest.test_case "two NATs: the walk enters b on port 1" `Slow
      (fun () ->
        (* b branches on its input port; the composite state must carry
           the port the a[0] -> [1]b edge sets. *)
        Summaries.clear ();
        let pl =
          Click.Config.parse_file
            (List.find Sys.file_exists [ "two_nat.click"; "test/two_nat.click" ])
        in
        let r = W.differential ~seed:7 ~count:500 pl in
        assert_clean r;
        check_int "packets run" 500 r.W.f_packets);
  ]

let replay_tests =
  [
    Alcotest.test_case "stateless crash replays confirmed" `Quick
      (fun () ->
        Summaries.clear ();
        let r =
          V.check_crash_freedom ~config:fast_config
            (Click.El_toy.e2_pipeline ())
        in
        assert_all_confirmed "toy e2" r);
    Alcotest.test_case "stateful violations replay with recovered state"
      `Slow (fun () ->
        List.iter
          (fun (cls, config, expect_state) ->
            Summaries.clear ();
            let r =
              V.check_crash_freedom ~config:fast_config (guard cls config)
            in
            assert_all_confirmed cls r;
            (* The counter only overflows from a particular state
               history, so its witness must preload the store; the
               quota's div-by-zero is reachable from a fresh state. *)
            let needs_state =
              List.exists
                (fun (v : V.violation) -> v.V.replayed.W.state <> [])
                (violations r)
            in
            if expect_state then
              check_bool (cls ^ ": some witness loads state") true
                needs_state)
          [ ("BuggyCounter", [], true); ("BuggyQuota", [ "1000" ], false) ]);
    Alcotest.test_case "violations replay confirmed under jobs=4" `Slow
      (fun () ->
        Summaries.clear ();
        let config = { fast_config with V.jobs = 4 } in
        let r = V.check_crash_freedom ~config (guard "BuggyCounter" []) in
        assert_all_confirmed "BuggyCounter j4" r);
    Alcotest.test_case "every Sat answer is replayed" `Quick (fun () ->
        (* Crash, reach and bound on one stateful buggy pipeline: each
           violation and the bound witness is one replay, and nothing
           else is. *)
        Summaries.clear ();
        let pl = guard "BuggyCounter" [] in
        let crash = V.check_crash_freedom ~config:fast_config pl in
        let reach =
          V.check_reachability ~config:fast_config
            ~bad:(function V.End_drop _ -> true | _ -> false)
            pl
        in
        let bound = V.instruction_bound ~config:fast_config pl in
        check_bool "crash violations found" true (violations crash <> []);
        check_bool "reach violations found" true (violations reach <> []);
        let vs = violations crash @ violations reach in
        List.iter
          (fun (v : V.violation) ->
            let w = v.V.replayed in
            check_bool "the replay ran the witness" true
              (w.W.run.Click.Runtime.steps <> []);
            check_bool "confirmed is the replay's status" (W.confirmed w)
              v.V.confirmed)
          vs;
        check_bool "bound witness replayed" true (bound.V.b_replayed <> None);
        check_int "one replay per Sat answer"
          (List.length vs + 1)
          (crash.V.stats.V.replays + reach.V.stats.V.replays
          + bound.V.b_stats.V.replays));
    Alcotest.test_case "bound witness replays within the interval" `Quick
      (fun () ->
        Summaries.clear ();
        let r =
          V.instruction_bound ~config:fast_config
            (Click.El_toy.fig2_pipeline ())
        in
        (match r.V.b_replayed with
        | Some w -> check_bool "bound replay confirmed" true (W.confirmed w)
        | None -> Alcotest.fail "expected a bound replay");
        match (r.V.bound, r.V.measured) with
        | Some b, Some m -> check_bool "measured <= bound" true (m <= b)
        | _ -> Alcotest.fail "expected bound and measurement");
  ]

let tests = differential_tests @ replay_tests
