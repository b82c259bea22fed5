(* Incremental re-verification under config churn: static-store
   mutations must invalidate exactly the dependent cached state (and
   flip verdicts accordingly), element-level FIB churn must keep the
   incremental verdict equal to the from-scratch one, the runtime FIB
   must track churn against the reference trie, and the summary cache
   must survive a symbex exception without poisoning itself. *)

module B = Vdp_bitvec.Bitvec
module Ir = Vdp_ir.Types
module Sdata = Vdp_ir.Static_data
module Bld = Vdp_ir.Builder
module E = Vdp_symbex.Engine
module Click = Vdp_click
module L = Vdp_click.El_lookup
module Lpm = Vdp_tables.Lpm
module V = Vdp_verif.Verifier
module Summaries = Vdp_verif.Summaries
module Staleness = Vdp_verif.Staleness

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fast_config =
  { V.default_config with
    V.engine = { E.default_config with E.max_len = 128 } }

let verdict_name (r : V.report) =
  match r.V.verdict with
  | V.Proved -> "proved"
  | V.Violated _ -> "violated"
  | V.Unknown m -> "unknown:" ^ m

(* {1 A pipeline whose verdict depends on one static slot} *)

(* FlagGuard asserts that slot 0 of its static "flag" store is zero —
   a concrete-key read, so its summary records the (store, key) slice
   and a mutation of that slot must invalidate and flip the verdict. *)
let flag_element () =
  let decl =
    Ir.store ~name:"flag" ~key_width:8 ~val_width:8 ~kind:Ir.Static
      ~default:(B.zero 8)
      ~init:[ (B.zero 8, B.zero 8) ]
      ()
  in
  let b = Bld.create ~name:"FlagGuard" in
  Bld.declare_store b decl;
  let v =
    Bld.kv_read b ~store:"flag" ~key:(Ir.Const (B.zero 8)) ~val_width:8
  in
  let ok = Bld.cmp b Ir.Eq (Ir.Reg v) (Ir.Const (B.zero 8)) in
  Bld.instr b (Ir.Assert (Ir.Reg ok, "flag clear"));
  Bld.term b (Ir.Emit 0);
  let program = Bld.finish b in
  (Click.Element.make ~name:"guard" ~cls:"FlagGuard" ~config:[] program,
   decl.Ir.init)

let flip_tests =
  [
    Alcotest.test_case "mutating a read slot flips the verdict" `Quick
      (fun () ->
        Summaries.clear ();
        let el, data = flag_element () in
        let pl = Click.Pipeline.linear [ el ] in
        let s = V.session ~config:fast_config pl in
        let r1, _ = V.verify_crash s in
        check_bool "clear flag proves" true (verdict_name r1 = "proved");
        (* Reuse without any mutation: the memoized verdict comes back. *)
        let r1', reused = V.verify_crash s in
        check_bool "verdict reused" true reused;
        check_bool "same verdict" true (verdict_name r1' = "proved");
        (* Mutate the slot the summary read: the verdict must flip. *)
        Staleness.reset_stats ();
        Sdata.set data (B.zero 8) (B.of_int ~width:8 1);
        check_bool "mutation observed" true
          (Staleness.stats.Staleness.mutations >= 1);
        check_bool "dependent summary dropped" true
          (Staleness.stats.Staleness.summaries_dropped >= 1);
        let r2, reused2 = V.verify_crash s in
        check_bool "stale verdict not reused" false reused2;
        check_bool "set flag violates" true (verdict_name r2 = "violated");
        (* And back: restoring the slot restores the proof. *)
        Sdata.set data (B.zero 8) (B.zero 8);
        let r3, _ = V.verify_crash s in
        check_bool "restored flag proves" true (verdict_name r3 = "proved"));
    Alcotest.test_case "unrelated-key mutation spares the summary" `Quick
      (fun () ->
        Summaries.clear ();
        let el, data = flag_element () in
        let pl = Click.Pipeline.linear [ el ] in
        let s = V.session ~config:fast_config pl in
        let r1, _ = V.verify_crash s in
        check_bool "proved" true (verdict_name r1 = "proved");
        Staleness.reset_stats ();
        (* Key 7 was never read concretely; the summary must survive
           and the memoized verdict must be reused. *)
        Sdata.set data (B.of_int ~width:8 7) (B.of_int ~width:8 1);
        check_int "no summaries dropped" 0
          Staleness.stats.Staleness.summaries_dropped;
        let r2, reused = V.verify_crash s in
        check_bool "reused" true reused;
        check_bool "still proved" true (verdict_name r2 = "proved"));
  ]

(* {1 Router + NAT churn: incremental verdict = from-scratch verdict} *)

let mask32 len =
  if len = 0 then 0 else 0xffffffff lxor ((1 lsl (32 - len)) - 1)

let nat_router_pipeline fib =
  Click.Pipeline.linear
    [
      Click.Registry.make ~name:"cl" ~cls:"Classifier" ~config:[ "12/0800" ];
      Click.Registry.make ~name:"strip" ~cls:"Strip" ~config:[ "14" ];
      Click.Registry.make ~name:"chk" ~cls:"CheckIPHeader" ~config:[];
      Click.Registry.make ~name:"flow" ~cls:"FlowCounter" ~config:[];
      Click.Registry.make ~name:"nat" ~cls:"IPRewriter"
        ~config:[ "203.0.113.7" ];
      Click.Registry.make ~name:"cks" ~cls:"SetIPChecksum" ~config:[];
      Click.Element.make ~name:"rt" ~cls:"RadixIPLookup"
        ~config:[ Printf.sprintf "<%d routes>" (L.Fib.count fib) ]
        (L.radix_program fib);
    ]

let churn_tests =
  [
    Alcotest.test_case
      "router+NAT: incremental equals from-scratch across churn" `Slow
      (fun () ->
        Summaries.clear ();
        let st = Random.State.make [| 42 |] in
        let routes =
          { L.prefix = 0; plen = 0; gw = 0; port = 2 }
          :: List.init 200 (fun i ->
                 let plen = 8 + Random.State.int st 25 in
                 {
                   L.prefix =
                     Random.State.int st 0x3fffffff * 4 land mask32 plen;
                   plen;
                   gw = 0;
                   port = i mod 3;
                 })
        in
        let fib = L.Fib.create ~nports:3 routes in
        let pl = nat_router_pipeline fib in
        let s = V.session ~config:fast_config pl in
        let r0, _ = V.verify_crash s in
        for i = 1 to 3 do
          (* One rule change per round: two inserts, then a delete. *)
          let prefix = Random.State.int st 0x3fffffff * 4 land mask32 24 in
          if i = 3 then ignore (L.Fib.delete fib ~prefix ~plen:24)
          else
            L.Fib.insert fib { L.prefix = prefix; plen = 24; gw = 0; port = i mod 3 };
          let r_inc, _ = V.verify_crash s in
          Summaries.clear ();
          let r_scr = V.check_crash_freedom ~config:fast_config pl in
          check_bool
            (Printf.sprintf "round %d verdicts agree" i)
            true
            (verdict_name r_inc = verdict_name r_scr);
          check_bool
            (Printf.sprintf "round %d agrees with initial" i)
            true
            (verdict_name r_inc = verdict_name r0)
        done);
  ]

(* {1 Runtime FIB vs reference trie across out-of-order churn} *)

let fib_churn_tests =
  [
    Alcotest.test_case "FIB tracks the trie across inserts and deletes"
      `Quick
      (fun () ->
        let st = Random.State.make [| 2024 |] in
        let fib = L.Fib.create ~nports:8 [] in
        let model : (int * int, L.route) Hashtbl.t = Hashtbl.create 64 in
        let rand_route () =
          let plen = Random.State.int st 33 in
          let prefix = Random.State.int st 0x3fffffff * 4 land mask32 plen in
          { L.prefix; plen; gw = Random.State.int st 1000;
            port = Random.State.int st 8 }
        in
        let checks () =
          (* Rebuild the reference trie from the surviving routes and
             compare on random addresses plus each route's own cone. *)
          let idx = ref [] in
          let trie = Lpm.create () in
          Hashtbl.iter
            (fun (p, l) (r : L.route) ->
              idx := r :: !idx;
              Lpm.add trie ~prefix:p ~len:l (List.length !idx - 1))
            model;
          let arr = Array.of_list (List.rev !idx) in
          let probe addr =
            let expect =
              match Lpm.lookup trie addr with
              | None -> None
              | Some i -> Some (arr.(i).L.gw, arr.(i).L.port)
            in
            let got = L.Fib.lookup fib addr in
            if expect <> got then
              Alcotest.failf "lookup 0x%08x: model %s, fib %s" addr
                (match expect with
                | None -> "miss"
                | Some (g, p) -> Printf.sprintf "(%d,%d)" g p)
                (match got with
                | None -> "miss"
                | Some (g, p) -> Printf.sprintf "(%d,%d)" g p)
          in
          for _ = 1 to 500 do
            probe (Random.State.int st 0x3fffffff * 4)
          done;
          Hashtbl.iter
            (fun (p, _) _ ->
              probe p;
              probe (p lxor 1);
              probe (p lxor 0x100))
            model
        in
        (* Three waves: grow, mixed insert/delete, shrink — prefix
           lengths arrive in random order throughout. *)
        for _ = 1 to 60 do
          let r = rand_route () in
          L.Fib.insert fib r;
          Hashtbl.replace model (r.L.prefix, r.L.plen) r
        done;
        checks ();
        for _ = 1 to 60 do
          if Random.State.bool st && Hashtbl.length model > 0 then begin
            let keys = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
            let p, l = List.nth keys (Random.State.int st (List.length keys)) in
            check_bool "delete of present route" true
              (L.Fib.delete fib ~prefix:p ~plen:l);
            Hashtbl.remove model (p, l)
          end
          else begin
            let r = rand_route () in
            L.Fib.insert fib r;
            Hashtbl.replace model (r.L.prefix, r.L.plen) r
          end
        done;
        checks ();
        Hashtbl.iter (fun (p, l) _ -> ignore (L.Fib.delete fib ~prefix:p ~plen:l))
          (Hashtbl.copy model);
        Hashtbl.reset model;
        checks ();
        check_int "all routes deleted" 0 (L.Fib.count fib));
  ]

(* {1 Summary-cache behavior under symbex exceptions} *)

let poison_tests =
  [
    Alcotest.test_case "symbex exception clears in-flight and propagates"
      `Quick
      (fun () ->
        (* A program reading an undeclared store makes Engine.explore
           raise; built directly (Element.make would reject it). *)
        let b = Bld.create ~name:"Broken" in
        let _ =
          Bld.kv_read b ~store:"nope" ~key:(Ir.Const (B.zero 8)) ~val_width:8
        in
        Bld.term b (Ir.Emit 0);
        let broken =
          {
            Click.Element.name = "broken";
            cls = "Broken";
            config = [];
            program = Bld.finish b;
          }
        in
        let raises () =
          try
            ignore (Summaries.summarize broken);
            false
          with _ -> true
        in
        check_bool "first summarize raises" true (raises ());
        (* If the in-flight marker leaked, this second call would wait
           forever on a key nobody is computing. *)
        check_bool "second summarize raises again" true (raises ());
        (* The cache itself is not poisoned for other elements. *)
        let good = Click.El_toy.e1_element () in
        let entry = Summaries.summarize good in
        check_bool "good element still summarizes" true
          (entry.Summaries.result.E.segments <> []));
  ]

(* {1 Fabric sessions: churn in one pipeline spares the others} *)

module Cfg = Vdp_click.Config
module F = Vdp_topo.Fabric
module Q = Vdp_topo.Query

(* Two disconnected single-guard pipelines sharing a fabric. Mutating
   the static slot read by one pipeline's guard must re-verify exactly
   the properties whose pipe-closure contains that pipeline; the other
   pipeline's memoized verdict must survive the churn untouched. *)
let fabric_session_tests =
  [
    Alcotest.test_case "fabric: churn invalidates only the mutated pipe"
      `Quick
      (fun () ->
        Summaries.clear ();
        let ga, data_a = flag_element () in
        let gb, _data_b = flag_element () in
        let eg p = { Cfg.ref_pipeline = p; ref_element = None; ref_port = 0 } in
        let topo =
          {
            Cfg.topo_pipelines =
              [
                ("pa", Click.Pipeline.linear [ ga ]);
                ("pb", Click.Pipeline.linear [ gb ]);
              ];
            topo_links = [];
            topo_ingresses = [ ("ia", "pa", 0); ("ib", "pb", 0) ];
            topo_egresses = [ ("ea", eg "pa"); ("eb", eg "pb") ];
            topo_props = [ Cfg.Reach ("ia", "ea"); Cfg.Reach ("ib", "eb") ];
          }
        in
        let fab = F.of_topo topo in
        let qcfg =
          { Q.default_config with
            Q.engine = { E.default_config with E.max_len = 128 } }
        in
        let s = Q.session ~config:qcfg fab in
        let holds (r : Q.report) =
          match r.Q.verdict with Q.Holds (Some _) -> true | _ -> false
        in
        let ra, m = Q.query s (Cfg.Reach ("ia", "ea")) in
        check_bool "ia fresh" false m;
        check_bool "ia holds" true (holds ra);
        let rb, m = Q.query s (Cfg.Reach ("ib", "eb")) in
        check_bool "ib fresh" false m;
        check_bool "ib holds" true (holds rb);
        (* Warm re-query: both verdicts come back memoized. *)
        let _, m = Q.query s (Cfg.Reach ("ia", "ea")) in
        check_bool "ia memoized" true m;
        let _, m = Q.query s (Cfg.Reach ("ib", "eb")) in
        check_bool "ib memoized" true m;
        (* Poison pa's guard slot: its reach verdict must be recomputed
           (and flip — the assert now fails on every path), while pb's
           verdict is revalidated without re-querying. *)
        Staleness.reset_stats ();
        Sdata.set data_a (B.zero 8) (B.of_int ~width:8 1);
        check_bool "mutation observed" true
          (Staleness.stats.Staleness.mutations >= 1);
        let ra2, m = Q.query s (Cfg.Reach ("ia", "ea")) in
        check_bool "ia recomputed" false m;
        check_bool "ia no longer holds" false (holds ra2);
        let rb2, m = Q.query s (Cfg.Reach ("ib", "eb")) in
        check_bool "ib still memoized" true m;
        check_bool "ib still holds" true (holds rb2);
        (* Restore: pa recomputes back to holding, pb stays warm. *)
        Sdata.set data_a (B.zero 8) (B.zero 8);
        let ra3, m = Q.query s (Cfg.Reach ("ia", "ea")) in
        check_bool "ia recomputed after restore" false m;
        check_bool "ia holds again" true (holds ra3);
        let _, m = Q.query s (Cfg.Reach ("ib", "eb")) in
        check_bool "ib memoized throughout" true m);
    Alcotest.test_case "fabric: a depth-2 reach probes the priming pipe"
      `Slow
      (fun () ->
        Summaries.clear ();
        (* The NAT return path: nothing from the WAN reaches the LAN
           until an inside packet has primed the gateway's mapping. The
           priming packet enters through its own guard pipe, which the
           WAN ingress cannot reach, so only a depth-2 answer reads it. *)
        let guard, data = flag_element () in
        let gw =
          Click.Config.parse
            {|
              nat :: NATGateway(203.0.113.1);
              rt :: StaticIPLookup(10.1.0.0/16 0, 0.0.0.0/0 1);
              nat[1] -> rt;
              nat[2] -> Discard;
            |}
        in
        let out p port =
          { Cfg.ref_pipeline = p; ref_element = None; ref_port = port }
        in
        let fab =
          F.of_topo
            {
              Cfg.topo_pipelines =
                [ ("g", Click.Pipeline.linear [ guard ]); ("gw", gw) ];
              topo_links = [ (out "g" 0, "gw", 0) ];
              topo_ingresses = [ ("inside", "g", 0); ("wan", "gw", 1) ];
              topo_egresses = [ ("wan_out", out "gw" 0); ("lan", out "gw" 1) ];
              topo_props = [];
            }
        in
        let qcfg =
          { Q.default_config with
            Q.engine = { E.default_config with E.max_len = 128 } }
        in
        let s = Q.session ~config:qcfg fab in
        let prop = Cfg.Reach ("wan", "lan") in
        let r, m = Q.query s prop in
        check_bool "fresh" false m;
        check_int "decided at depth two" 2 r.Q.depth;
        check_bool "primed through the guard" true
          (match r.Q.verdict with
          | Q.Holds (Some f) -> f.Q.w_confirmed && f.Q.w_prime <> None
          | _ -> false);
        let _, m = Q.query s prop in
        check_bool "memoized" true m;
        (* Poison the guard: no priming packet gets through any more, so
           the reach must be recomputed and fail. *)
        Sdata.set data (B.zero 8) (B.of_int ~width:8 1);
        let r, m = Q.query s prop in
        check_bool "recomputed" false m;
        check_bool "no longer reachable" true
          (match r.Q.verdict with Q.Fails _ -> true | _ -> false));
  ]

(* {1 A replayed witness rests on store contents}

   RadixIPLookup reads its table at a symbolic key, so no summary
   records a slice of it, and flipping the default route drops none of
   them. A reach verdict whose witness replayed against the old routes
   must still not be reused: its stores' generations moved. *)

let witness_session_tests =
  [
    Alcotest.test_case "fabric: route flip invalidates a replayed witness"
      `Quick
      (fun () ->
        Summaries.clear ();
        let route prefix plen port = { L.prefix; plen; gw = 0; port } in
        let fib =
          L.Fib.create ~nports:2
            [ route 0 0 0; route 0xc0000200 24 1 ]
        in
        let pl =
          Click.Pipeline.linear
            [
              Click.Registry.make ~name:"cl" ~cls:"Classifier"
                ~config:[ "12/0800" ];
              Click.Registry.make ~name:"strip" ~cls:"Strip" ~config:[ "14" ];
              Click.Registry.make ~name:"chk" ~cls:"CheckIPHeader" ~config:[];
              Click.Element.make ~name:"rt" ~cls:"RadixIPLookup"
                ~config:[ "<2 routes>" ] (L.radix_program fib);
            ]
        in
        let fab =
          F.of_topo
            {
              Cfg.topo_pipelines = [ ("p", pl) ];
              topo_links = [];
              topo_ingresses = [ ("i", "p", 0) ];
              topo_egresses =
                [
                  ( "e0",
                    { Cfg.ref_pipeline = "p"; ref_element = Some "rt";
                      ref_port = 0 } );
                ];
              topo_props = [];
            }
        in
        let qcfg =
          { Q.default_config with
            Q.engine = { E.default_config with E.max_len = 128 } }
        in
        let s = Q.session ~config:qcfg fab in
        let prop = Cfg.Reach ("i", "e0") in
        let r, m = Q.query s prop in
        check_bool "fresh" false m;
        check_bool "holds with a confirmed witness" true
          (match r.Q.verdict with
          | Q.Holds (Some f) -> f.Q.w_confirmed
          | _ -> false);
        let _, m = Q.query s prop in
        check_bool "memoized" true m;
        (* Flip the default route to port 1. *)
        Staleness.reset_stats ();
        check_bool "default route deleted" true
          (L.Fib.delete fib ~prefix:0 ~plen:0);
        L.Fib.insert fib (route 0 0 1);
        check_int "no summary recorded a slice" 0
          Staleness.stats.Staleness.summaries_dropped;
        let r, m = Q.query s prop in
        check_bool "re-queried" false m;
        Summaries.clear ();
        let scratch =
          Q.run ~config:qcfg (Vdp_topo.Relation.build ~config:qcfg.Q.engine fab)
            prop
        in
        Alcotest.(check string)
          "same verdict as from scratch"
          (Q.verdict_to_string scratch.Q.verdict)
          (Q.verdict_to_string r.Q.verdict));
  ]

let tests =
  flip_tests @ churn_tests @ fib_churn_tests @ poison_tests
  @ fabric_session_tests @ witness_session_tests
