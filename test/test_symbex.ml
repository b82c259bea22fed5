(* The symbolic-execution engine: segment enumeration, crash
   detection, loop handling — and the key soundness oracle: every
   concrete run is covered by exactly the segment whose constraints the
   packet satisfies, with matching outcome and instruction count. *)

module B = Vdp_bitvec.Bitvec
module T = Vdp_smt.Term
module Model = Vdp_smt.Model
module Eval = Vdp_smt.Eval
module Ir = Vdp_ir.Types
module Interp = Vdp_ir.Interp
module Stores = Vdp_ir.Stores
module P = Vdp_packet.Packet
module E = Vdp_symbex.Engine
module S = Vdp_symbex.Sstate
module L = Vdp_symbex.Loopinfo
module Click = Vdp_click

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let crashes (r : E.result) =
  List.filter
    (fun s -> match s.E.outcome with E.O_crash _ -> true | _ -> false)
    r.E.segments

(* Build a model binding the packet input variables to a concrete
   packet (window-relative). *)
let model_of_packet pkt =
  let m = Model.create () in
  Model.set_bv m S.len_var (B.of_int ~width:16 (P.length pkt));
  for j = 0 to P.length pkt - 1 do
    Model.set_bv m (S.byte_var j) (B.of_int ~width:8 (P.get_u8 pkt j))
  done;
  m

(* A segment covers a packet if all its constraints evaluate true
   (internal variables default to the model's zero — only valid for
   programs without KV reads or havoc; fine for the elements below). *)
let covering_segments (r : E.result) pkt =
  let m = model_of_packet pkt in
  List.filter
    (fun (s : E.segment) -> List.for_all (Eval.eval_bool m) s.E.cond)
    r.E.segments

let same_outcome (sym : E.outcome) (conc : Ir.outcome) =
  match (sym, conc) with
  | E.O_emit p, Ir.Emitted q -> p = q
  | E.O_drop, Ir.Dropped -> true
  | E.O_crash _, Ir.Crashed _ -> true
  | _ -> false

let unit_tests =
  [
    Alcotest.test_case "fig1 finds the crash and its inputs" `Quick
      (fun () ->
        let r = E.explore (Click.El_toy.fig1 ()) in
        check_int "no incomplete" 0 r.E.incomplete;
        (* Paths: len=0 oob, assert crash, in<10, in>=10. *)
        let cr = crashes r in
        check_bool "has assert crash" true
          (List.exists
             (fun s ->
               match s.E.outcome with
               | E.O_crash (E.C_assert _) -> true
               | _ -> false)
             cr);
        (* The assert-crash segment is satisfiable exactly by negative
           bytes. *)
        let assert_seg =
          List.find
            (fun s ->
              match s.E.outcome with
              | E.O_crash (E.C_assert _) -> true
              | _ -> false)
            cr
        in
        match Vdp_smt.Solver.check assert_seg.E.cond with
        | Vdp_smt.Solver.Sat m ->
          let b0 = Model.bv m (S.byte_var 0) ~width:8 in
          check_bool "witness byte is negative (signed)" true (B.msb b0)
        | _ -> Alcotest.fail "expected satisfiable crash segment");
    Alcotest.test_case "loop summarisation bounds instruction count"
      `Quick (fun () ->
        let r = E.explore (Click.El_ip.ip_gw_options ~gw:1) in
        check_int "complete" 0 r.E.incomplete;
        check_bool "some segment summarized" true
          (List.exists (fun s -> s.E.summarized) r.E.segments);
        List.iter
          (fun (s : E.segment) ->
            check_bool "hi >= lo" true (s.E.instr_hi >= s.E.instr_lo);
            check_bool "bounded" true (s.E.instr_hi < 10_000))
          r.E.segments);
    Alcotest.test_case "unrolled checksum loop is exact" `Quick (fun () ->
        let r = E.explore (Click.El_ip.check_ip_header ()) in
        check_int "complete" 0 r.E.incomplete;
        List.iter
          (fun (s : E.segment) ->
            check_bool "exact count" true (s.E.instr_lo = s.E.instr_hi))
          r.E.segments);
    Alcotest.test_case "division forks a crash segment" `Quick (fun () ->
        let r = E.explore (Click.El_market.buggy_quota ~quota:100) in
        check_bool "div0 segment" true
          (List.exists
             (fun s -> s.E.outcome = E.O_crash E.C_div0)
             r.E.segments));
    Alcotest.test_case "static store reads resolve concretely" `Quick
      (fun () ->
        (* RadixIPLookup reads lpm16/lpm32 with symbolic keys: fresh
           values; but the Counter's private store also yields fresh
           values — check the kv log records them. *)
        let r = E.explore (Click.El_basic.counter ()) in
        let seg = List.hd r.E.segments in
        check_bool "kv events logged" true (List.length seg.E.kv_log >= 4));
    Alcotest.test_case "loopinfo finds the options loop" `Quick (fun () ->
        let loops = L.analyze (Click.El_ip.ip_gw_options ~gw:1) in
        check_bool "at least one loop" true (loops <> []);
        check_bool "a branchy loop exists" true
          (List.exists (fun l -> l.L.body_branches >= 2) loops));
    Alcotest.test_case "loopinfo: checksum loop is straight-line" `Quick
      (fun () ->
        let loops = L.analyze (Click.El_ip.check_ip_header ()) in
        check_bool "exactly one loop" true (List.length loops = 1);
        let l = List.hd loops in
        check_int "no body branches" 0 l.L.body_branches);
    Alcotest.test_case "strip suspect covers short packets only" `Quick
      (fun () ->
        let r = E.explore (Click.El_basic.strip 14) in
        let cr = List.hd (crashes r) in
        (* Satisfiable, and every model has len < 14. *)
        match Vdp_smt.Solver.check cr.E.cond with
        | Vdp_smt.Solver.Sat m ->
          check_bool "len < 14" true
            (B.to_int_trunc (Model.bv m S.len_var ~width:16) < 14)
        | _ -> Alcotest.fail "expected sat");
  ]

(* Oracle: for random concrete packets, the engine's segments must
   cover the packet and predict outcome + instruction count. Uses
   store-free, loop-free elements so segment conditions are total. *)
let coverage_oracle name prog gen_pkt =
  QCheck.Test.make ~count:100 ~name
    (QCheck.make ~print:(fun i -> string_of_int i) QCheck.Gen.int)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let pkt = gen_pkt st in
      let r = E.explore prog in
      QCheck.assume (r.E.incomplete = 0);
      let covering = covering_segments r pkt in
      (* Exactly one segment must cover any concrete input. *)
      if List.length covering <> 1 then false
      else begin
        let seg = List.hd covering in
        let stores = Stores.init prog.Ir.stores in
        let res = Interp.run prog stores (P.clone pkt) in
        same_outcome seg.E.outcome res.Interp.outcome
        && seg.E.instr_lo <= res.Interp.instr_count
        && res.Interp.instr_count <= seg.E.instr_hi
      end)

let props =
  [
    coverage_oracle "segments partition inputs: CheckIPHeader"
      (Click.El_ip.check_ip_header ())
      (fun st ->
        if Random.State.bool st then
          Vdp_packet.Gen.random_frame ~min_len:1 ~max_len:64 st
        else begin
          let f = Vdp_packet.Gen.random_flow st in
          let p = Vdp_packet.Gen.frame_of_flow f in
          P.pull p 14;
          p
        end);
    coverage_oracle "segments partition inputs: Classifier"
      (Click.El_classifier.compile [ "12/0800"; "12/0806 20/0001"; "-" ])
      (fun st -> Vdp_packet.Gen.random_frame ~min_len:1 ~max_len:48 st);
    coverage_oracle "segments partition inputs: DecIPTTL"
      (Click.El_ip.dec_ip_ttl ())
      (fun st -> Vdp_packet.Gen.random_frame ~min_len:1 ~max_len:32 st);
    coverage_oracle "segments partition inputs: StaticIPLookup"
      (Click.El_lookup.static_ip_lookup
         (List.map Click.El_lookup.parse_route
            [ "10.0.0.0/8 0"; "192.168.0.0/16 1"; "0.0.0.0/0 2" ]))
      (fun st -> Vdp_packet.Gen.random_frame ~min_len:1 ~max_len:32 st);
    coverage_oracle "segments partition inputs: ToyE2"
      (Click.El_toy.e2 ())
      (fun st -> Vdp_packet.Gen.random_frame ~min_len:1 ~max_len:4 st);
  ]

(* Step 1 of the example routers: IPGWOptions's loop proofs share one
   solver context per exploration, so their common path terms are
   blasted once (one-shot checks made 11 655 SAT variables for the
   router), with the same answers and summaries. *)
let loop_proofs_share_a_context =
  Alcotest.test_case "router loop proofs share one solver context" `Quick
    (fun () ->
      let module Solver = Vdp_smt.Solver in
      let module Summaries = Vdp_verif.Summaries in
      let example name =
        List.find Sys.file_exists [ "../examples/" ^ name; "examples/" ^ name ]
      in
      let step1 name =
        let pl = Click.Config.parse_file (example name) in
        Solver.reset_stats ();
        let entries =
          Summaries.of_pipeline ~cache:(Summaries.create_cache ()) pl
        in
        Array.fold_left
          (fun n (e : Summaries.entry) ->
            n + List.length e.Summaries.result.E.segments)
          0 entries
      in
      check_int "router segments" 133 (step1 "router.click");
      let s = Solver.stats in
      check_int "loop-proof checks" 18 s.Solver.calls;
      check_int "sat" 5 s.Solver.sat_answers;
      check_int "unsat" 13 s.Solver.unsat_answers;
      check_bool
        (Printf.sprintf "at most 2000 SAT vars (%d)" s.Solver.sat_vars)
        true (s.Solver.sat_vars <= 2000);
      check_int "radix router segments" 145 (step1 "radix_router.click"))

(* Step 1 concretises a symbolic offset only over the values it can
   take on the path ([Interval.values]), so a parser behind IPv4's
   variable header length yields few variants the solver refutes. The
   SAT-feasible counts must not move: a value left out of a value set
   would drop a feasible path. *)
let offsets_follow_the_path =
  Alcotest.test_case "step 1 totals and feasible segments of the parsers"
    `Quick (fun () ->
      List.iter
        (fun (cls, config, total, feasible) ->
          let e = Click.Registry.make ~name:"x" ~cls ~config in
          let r = E.explore e.Click.Element.program in
          let name = String.concat ", " (cls :: config) in
          check_int (name ^ ": incomplete") 0 r.E.incomplete;
          check_int (name ^ ": segments") total (List.length r.E.segments);
          check_int (name ^ ": feasible") feasible
            (List.length
               (List.filter
                  (fun (s : E.segment) -> Vdp_smt.Solver.is_sat s.E.cond)
                  r.E.segments)))
        [
          ("IPFilter", [ "deny dst 10.1.0.0/16"; "allow all" ], 56, 35);
          ( "IPFilter",
            [
              "deny proto tcp dport 22";
              "allow src 10.0.0.0/8";
              "allow proto icmp";
              "deny all";
            ],
            89,
            52 );
          ("FlowCounter", [], 22, 20);
          ("IPRewriter", [ "203.0.113.7" ], 53, 51);
        ])

let tests =
  unit_tests
  @ List.map QCheck_alcotest.to_alcotest props
  @ [ loop_proofs_share_a_context; offsets_follow_the_path ]
