(* Domain-parallel verification: worker-pool semantics (ordering,
   exception propagation, sequential fast path), domain-safety of the
   shared SMT substrate (concurrent hash-consing, concurrent summary
   computation), and randomized differentials checking that [-j 4]
   produces exactly the sequential verdicts, bounds and violation
   orders. *)

module T = Vdp_smt.Term
module Par = Vdp_smt.Par
module E = Vdp_symbex.Engine
module Click = Vdp_click
module V = Vdp_verif.Verifier
module Pool = Vdp_verif.Pool
module Summaries = Vdp_verif.Summaries

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Worker pool} *)

let pool_tests =
  [
    Alcotest.test_case "map is positional with uneven task costs" `Quick
      (fun () ->
        Pool.with_pool 4 (fun pool ->
            let xs = Array.init 200 (fun i -> i) in
            let f i =
              (* Vary cost so claims interleave across runners. *)
              let n = ref 0 in
              for _ = 1 to (i mod 7) * 1_000 do
                incr n
              done;
              ignore !n;
              (i * i) + 1
            in
            let got = Pool.map pool f xs in
            Alcotest.(check (array int)) "same as Array.map" (Array.map f xs)
              got));
    Alcotest.test_case "map propagates a worker exception" `Quick (fun () ->
        Pool.with_pool 3 (fun pool ->
            let xs = Array.init 100 (fun i -> i) in
            Alcotest.check_raises "failure surfaces" (Failure "boom")
              (fun () ->
                ignore
                  (Pool.map pool
                     (fun i -> if i = 37 then failwith "boom" else i)
                     xs));
            (* The pool survives a failed map. *)
            let got = Pool.map pool (fun i -> i + 1) xs in
            check_int "reusable after failure" 100 got.(99)));
    Alcotest.test_case "size-1 pool stays sequential" `Quick (fun () ->
        check_bool "not in parallel mode before" false (Par.active ());
        Pool.with_pool 1 (fun pool ->
            check_int "size clamped" 1 (Pool.size pool);
            check_bool "no parallel mode for one runner" false (Par.active ());
            let got = Pool.map pool (fun i -> 2 * i) (Array.init 10 Fun.id) in
            check_int "maps inline" 18 got.(9)));
    Alcotest.test_case "parallel mode tracks pool lifetime" `Quick (fun () ->
        check_bool "off before" false (Par.active ());
        Pool.with_pool 2 (fun _ -> check_bool "on inside" true (Par.active ()));
        check_bool "off after" false (Par.active ()));
    Alcotest.test_case "map_list keeps order" `Quick (fun () ->
        Pool.with_pool 2 (fun pool ->
            Alcotest.(check (list int))
              "same as List.map" [ 0; 1; 4; 9; 16 ]
              (Pool.map_list pool (fun i -> i * i) [ 0; 1; 2; 3; 4 ])));
    Alcotest.test_case "nested map from inside a task does not deadlock"
      `Quick (fun () ->
        (* The barrier-style pool livelocked here: an outer map task
           calling map again had no runner left to execute the inner
           items. The helping scheduler runs them from the awaiting
           task itself. *)
        Pool.with_pool 4 (fun pool ->
            let got =
              Pool.map pool
                (fun i ->
                  let inner =
                    Pool.map pool (fun j -> (10 * i) + j)
                      (Array.init 8 Fun.id)
                  in
                  Array.fold_left ( + ) 0 inner)
                (Array.init 8 Fun.id)
            in
            let expect i = (8 * 10 * i) + 28 in
            Array.iteri
              (fun i v -> check_int (Printf.sprintf "outer %d" i) (expect i) v)
              got));
    Alcotest.test_case "spawn/await: any order, exceptions at await" `Quick
      (fun () ->
        Pool.with_pool 3 (fun pool ->
            let futs =
              List.init 20 (fun i ->
                  Pool.spawn pool (fun () ->
                      if i = 13 then failwith "task 13";
                      i * 3))
            in
            (* Await in reverse spawn order; helping must still drain
               everything, and only the failing future raises. *)
            List.iteri
              (fun k fut ->
                let i = 19 - k in
                if i = 13 then
                  Alcotest.check_raises "task 13 raises"
                    (Failure "task 13") (fun () ->
                      ignore (Pool.await pool fut))
                else
                  check_int (Printf.sprintf "task %d" i) (i * 3)
                    (Pool.await pool fut))
              (List.rev futs)));
    Alcotest.test_case "scheduler stats account every task" `Quick (fun () ->
        Pool.with_pool 2 (fun pool ->
            Pool.reset_stats pool;
            let futs =
              List.init 50 (fun i -> Pool.spawn pool (fun () -> i))
            in
            List.iter (fun f -> ignore (Pool.await pool f)) futs;
            let s = Pool.stats pool in
            check_int "spawned" 50 s.Pool.spawned;
            check_int "executed" 50 s.Pool.executed;
            check_int "histogram covers executed" 50
              (Array.fold_left ( + ) 0 s.Pool.hist);
            check_bool "stolen within executed" true
              (s.Pool.stolen >= 0 && s.Pool.stolen <= s.Pool.executed);
            check_bool "busy time non-negative" true (s.Pool.busy_seconds >= 0.)));
    Alcotest.test_case "size-1 pool spawns inline, in order" `Quick (fun () ->
        Pool.with_pool 1 (fun pool ->
            let order = ref [] in
            let futs =
              List.init 5 (fun i ->
                  Pool.spawn pool (fun () ->
                      order := i :: !order;
                      i))
            in
            (* Inline execution: all done before any await. *)
            Alcotest.(check (list int)) "sequential order" [ 4; 3; 2; 1; 0 ]
              !order;
            List.iteri
              (fun i f -> check_int "value" i (Pool.await pool f))
              futs;
            let s = Pool.stats pool in
            check_bool "counted" true (s.Pool.spawned >= 5)));
  ]

(* {1 Concurrent term interning} *)

let interning_tests =
  [
    Alcotest.test_case "domains interning the same terms share nodes" `Quick
      (fun () ->
        (* Four domains race to intern an identical family of nested
           terms; hash-consing must hand every domain the same physical
           node for structurally equal terms, with distinct ids for
           distinct terms. *)
        let build () =
          List.init 128 (fun i ->
              let x = T.var "par_x" 16 in
              let k = T.bv_int ~width:16 i in
              T.and_ [ T.ult x (T.add x k); T.eq (T.band x k) k ])
        in
        let per_domain =
          Pool.with_pool 4 (fun pool ->
              Pool.map pool (fun _ -> build ()) (Array.init 4 Fun.id))
        in
        let reference = per_domain.(0) in
        Array.iteri
          (fun d terms ->
            List.iter2
              (fun a b ->
                check_bool
                  (Printf.sprintf "domain %d: physically equal" d)
                  true (a == b))
              reference terms)
          per_domain;
        let ids =
          List.sort_uniq compare (List.map (fun t -> t.T.id) reference)
        in
        check_int "distinct terms keep distinct ids" 128 (List.length ids));
  ]

(* {1 Concurrent summaries} *)

let summaries_tests =
  [
    Alcotest.test_case "concurrent summarize computes each key once" `Quick
      (fun () ->
        let cache = Summaries.create_cache () in
        let el () =
          Click.Registry.make ~name:"ttl" ~cls:"DecIPTTL" ~config:[]
        in
        let entries =
          Pool.with_pool 4 (fun pool ->
              Pool.map pool
                (fun _ -> Summaries.summarize ~cache (el ()))
                (Array.init 8 Fun.id))
        in
        (* The in-flight protocol guarantees one symbex: every caller
           gets the single inserted entry back, physically. *)
        check_int "one cache entry" 1 (Summaries.size ~cache ());
        Array.iter
          (fun e -> check_bool "same entry" true (e == entries.(0)))
          entries);
    Alcotest.test_case "summarize_all with a pool matches sequential" `Quick
      (fun () ->
        let els =
          [|
            Click.Registry.make ~name:"a" ~cls:"Strip" ~config:[ "14" ];
            Click.Registry.make ~name:"b" ~cls:"DecIPTTL" ~config:[];
            Click.Registry.make ~name:"c" ~cls:"Strip" ~config:[ "14" ];
          |]
        in
        let seq_cache = Summaries.create_cache () in
        let seq = Summaries.summarize_all ~cache:seq_cache els in
        let par_cache = Summaries.create_cache () in
        let par =
          Pool.with_pool 3 (fun pool ->
              Summaries.summarize_all ~pool ~cache:par_cache els)
        in
        check_int "same distinct summaries" (Summaries.size ~cache:seq_cache ())
          (Summaries.size ~cache:par_cache ());
        Array.iteri
          (fun i (s : Summaries.entry) ->
            check_int
              (Printf.sprintf "element %d: same segment count" i)
              (List.length s.Summaries.result.E.segments)
              (List.length par.(i).Summaries.result.E.segments))
          seq;
        (* Repeated elements share one summary in both modes. *)
        check_bool "sequential shares" true (seq.(0) == seq.(2));
        check_bool "parallel shares" true (par.(0) == par.(2)));
  ]

(* {1 Randomized differential: sequential vs -j 4} *)

let config ~jobs =
  {
    V.default_config with
    V.engine = { E.default_config with E.max_len = 128 };
    V.jobs;
  }

(* Random linear pipelines over a pool of cheap-to-verify elements;
   element order is arbitrary, so both Proved and Violated verdicts
   occur (e.g. Strip without a preceding length check crashes). *)
let element_pool =
  [|
    (fun name -> Click.Registry.make ~name ~cls:"Classifier"
        ~config:[ "12/0800"; "-" ]);
    (fun name -> Click.Registry.make ~name ~cls:"Strip" ~config:[ "14" ]);
    (fun name -> Click.Registry.make ~name ~cls:"CheckIPHeader" ~config:[]);
    (fun name -> Click.Registry.make ~name ~cls:"DecIPTTL" ~config:[]);
    (fun name -> Click.Registry.make ~name ~cls:"SetIPChecksum" ~config:[]);
    (fun name -> Click.Registry.make ~name ~cls:"FlowCounter" ~config:[]);
  |]

let gen_pipeline : int list QCheck.Gen.t =
  QCheck.Gen.(
    list_size (int_range 2 5) (int_bound (Array.length element_pool - 1)))

let build_pipeline picks =
  Click.Pipeline.linear
    (List.mapi (fun i p -> element_pool.(p) (Printf.sprintf "e%d_%d" i p))
       picks)

let print_pipeline picks =
  String.concat "->" (List.map string_of_int picks)

let violation_sig r =
  match r.V.verdict with
  | V.Violated vs ->
    Some (List.map (fun v -> (v.V.node, v.V.element, v.V.confirmed)) vs)
  | V.Proved -> None
  | V.Unknown _ -> None

let verdict_kind r =
  match r.V.verdict with
  | V.Proved -> `Proved
  | V.Violated _ -> `Violated
  | V.Unknown _ -> `Unknown

let crash_differential =
  QCheck.Test.make ~count:12
    ~name:"crash freedom: -j 4 matches sequential verdicts exactly"
    (QCheck.make ~print:print_pipeline gen_pipeline)
    (fun picks ->
      let pl = build_pipeline picks in
      Summaries.clear ();
      let seq = V.check_crash_freedom ~config:(config ~jobs:1) pl in
      Summaries.clear ();
      let par = V.check_crash_freedom ~config:(config ~jobs:4) pl in
      verdict_kind seq = verdict_kind par
      (* Violations in the same DFS order, at the same nodes, with the
         same runtime confirmation. *)
      && violation_sig seq = violation_sig par
      && seq.V.stats.V.suspects = par.V.stats.V.suspects
      && seq.V.stats.V.suspect_checks = par.V.stats.V.suspect_checks)

let bound_differential =
  QCheck.Test.make ~count:8
    ~name:"instruction bound: -j 4 matches the sequential bound"
    (QCheck.make ~print:print_pipeline gen_pipeline)
    (fun picks ->
      let pl = build_pipeline picks in
      Summaries.clear ();
      let seq = V.instruction_bound ~config:(config ~jobs:1) pl in
      Summaries.clear ();
      let par = V.instruction_bound ~config:(config ~jobs:4) pl in
      seq.V.bound = par.V.bound
      && (match (seq.V.b_verdict, par.V.b_verdict) with
         | V.Proved, V.Proved -> true
         | V.Unknown _, V.Unknown _ -> true
         | V.Violated _, V.Violated _ -> true
         | _ -> false))

(* Every drop or crash is a suspect end, so both verdict kinds occur. *)
let reach_differential =
  QCheck.Test.make ~count:8
    ~name:"reachability: -j 4 matches sequential verdicts exactly"
    (QCheck.make ~print:print_pipeline gen_pipeline)
    (fun picks ->
      let pl = build_pipeline picks in
      let bad = function
        | V.End_drop _ | V.End_crash _ -> true
        | V.End_egress _ -> false
      in
      Summaries.clear ();
      let seq = V.check_reachability ~config:(config ~jobs:1) ~bad pl in
      Summaries.clear ();
      let par = V.check_reachability ~config:(config ~jobs:4) ~bad pl in
      verdict_kind seq = verdict_kind par
      && violation_sig seq = violation_sig par
      && seq.V.stats.V.suspect_checks = par.V.stats.V.suspect_checks)

let fixed_differential_tests =
  [
    Alcotest.test_case "router: parallel crash stats match sequential" `Slow
      (fun () ->
        let pl =
          Click.Pipeline.linear
            [
              Click.Registry.make ~name:"cl" ~cls:"Classifier"
                ~config:[ "12/0800"; "-" ];
              Click.Registry.make ~name:"strip" ~cls:"Strip"
                ~config:[ "14" ];
              Click.Registry.make ~name:"chk" ~cls:"CheckIPHeader"
                ~config:[];
              Click.Registry.make ~name:"ttl" ~cls:"DecIPTTL" ~config:[];
            ]
        in
        Summaries.clear ();
        let seq = V.check_crash_freedom ~config:(config ~jobs:1) pl in
        Summaries.clear ();
        let par = V.check_crash_freedom ~config:(config ~jobs:4) pl in
        check_bool "both proved" true
          (verdict_kind seq = `Proved && verdict_kind par = `Proved);
        check_int "same composite paths" seq.V.stats.V.composite_paths
          par.V.stats.V.composite_paths;
        check_int "same suspect checks" seq.V.stats.V.suspect_checks
          par.V.stats.V.suspect_checks;
        check_int "same refutations" seq.V.stats.V.refuted
          par.V.stats.V.refuted);
    Alcotest.test_case "router: parallel bound and exactness match" `Slow
      (fun () ->
        let pl =
          Click.Pipeline.linear
            [
              Click.Registry.make ~name:"cl" ~cls:"Classifier"
                ~config:[ "12/0800"; "-" ];
              Click.Registry.make ~name:"strip" ~cls:"Strip"
                ~config:[ "14" ];
              Click.Registry.make ~name:"chk" ~cls:"CheckIPHeader"
                ~config:[];
              Click.Registry.make ~name:"ttl" ~cls:"DecIPTTL" ~config:[];
            ]
        in
        Summaries.clear ();
        let seq = V.instruction_bound ~config:(config ~jobs:1) pl in
        Summaries.clear ();
        let par = V.instruction_bound ~config:(config ~jobs:4) pl in
        check_bool "bound found" true (seq.V.bound <> None);
        check_bool "same bound" true (seq.V.bound = par.V.bound);
        check_bool "same exactness" true (seq.V.exact = par.V.exact);
        (* Both witnesses, possibly different packets, must attain a
           runtime measurement within the proved bound. *)
        match (seq.V.measured, par.V.measured, seq.V.bound) with
        | Some a, Some b, Some bd ->
          check_bool "measured within bound" true (a <= bd && b <= bd)
        | _ -> Alcotest.fail "expected measured witnesses");
    Alcotest.test_case "skewed tree: one subtree dominates, -j 4 matches"
      `Slow (fun () ->
        (* The classifier's IP branch carries the whole stateful chain —
           its composite subtree outweighs the Discard sibling by orders
           of magnitude. The coarse frontier partitioner serialized on
           such trees; fine-grained stealing must keep the verdict,
           counters and DFS order sequential regardless. *)
        let pl =
          Click.Config.parse
            {|
              cl :: Classifier(12/0800, -);
              strip :: Strip(14);
              chk :: CheckIPHeader;
              flow :: FlowCounter;
              nat :: IPRewriter(203.0.113.7);
              cl[0] -> strip -> chk -> flow -> nat;
              cl[1] -> Discard; nat[1] -> Discard;
            |}
        in
        Summaries.clear ();
        let seq = V.check_crash_freedom ~config:(config ~jobs:1) pl in
        Summaries.clear ();
        let par = V.check_crash_freedom ~config:(config ~jobs:4) pl in
        check_bool "same verdict kind" true
          (verdict_kind seq = verdict_kind par);
        check_bool "same violations" true
          (violation_sig seq = violation_sig par);
        check_int "same composite paths" seq.V.stats.V.composite_paths
          par.V.stats.V.composite_paths;
        check_int "same suspect checks" seq.V.stats.V.suspect_checks
          par.V.stats.V.suspect_checks;
        check_int "same refutations" seq.V.stats.V.refuted
          par.V.stats.V.refuted);
  ]

(* Certified crash freedom at -j 2 against -j 1 on the shipped router
   and NetFlow+NAT. The parallel driver defers each certificate check
   to a pool task, after its context has gone on to other checks, so
   this holds the in-context proofs to being read out before the check
   is deferred: the same verdict, every refutation certified, and the
   context-extracted DRAT tier actually in use. *)
let certified_parallel_tests =
  let find_example name =
    List.find Sys.file_exists [ "../examples/" ^ name; "examples/" ^ name ]
  in
  List.map
    (fun file ->
      Alcotest.test_case (file ^ ": certified -j 2 matches -j 1") `Slow
        (fun () ->
          let pl = Click.Config.parse_file (find_example file) in
          let run jobs =
            Summaries.clear ();
            Vdp_smt.Solver.Cache.clear Vdp_smt.Solver.shared_cache;
            V.check_crash_freedom
              ~config:{ V.default_config with V.certify = true; V.jobs }
              pl
          in
          let seq = run 1 and par = run 2 in
          check_bool "same verdict kind" true
            (verdict_kind seq = verdict_kind par);
          check_bool "same violations" true
            (violation_sig seq = violation_sig par);
          List.iter
            (fun (mode, (r : V.report)) ->
              match r.V.cert with
              | None -> Alcotest.failf "%s: no certification summary" mode
              | Some c ->
                let module C = Vdp_cert.Certificate in
                check_int (mode ^ ": certified = attempted") c.C.attempted
                  c.C.certified;
                check_int (mode ^ ": none failed") 0 c.C.failed;
                check_bool (mode ^ ": in-context DRAT used") true
                  (c.C.drat_ctx > 0))
            [ ("-j 1", seq); ("-j 2", par) ]))
    [ "router.click"; "netflow_nat.click" ]

(* {1 Fabric queries}

   Fabric queries run on the same two drivers. On seed-drawn
   two-tenant scenarios (one planted leak each), isolation of a safe
   and of the planted pair, a tenant's reach to the WAN and fabric
   crash freedom must come back with the same verdict, depth and flows
   — (ingress, end, confirmed), in order — at -j 4 as at -j 1, and
   every ingress must list the same paths in the same order. *)

module F = Vdp_topo.Fabric
module R = Vdp_topo.Relation
module Q = Vdp_topo.Query
module Sc = Vdp_topo.Scenario

let jobs_config ~jobs =
  { Q.default_config with
    Q.engine = { E.default_config with E.max_len = 128 };
    Q.jobs }

let flow_sig (f : Q.flow) = (f.Q.w_ingress, f.Q.w_end, f.Q.w_confirmed)

let query_sig = function
  | Q.Holds f -> (`Holds, List.map flow_sig (Option.to_list f))
  | Q.Fails (fs, _) -> (`Fails, List.map flow_sig fs)
  | Q.Unknown _ -> (`Unknown, [])

let fabric_differential =
  QCheck.Test.make ~count:2
    ~name:"fabric queries: -j 4 matches sequential verdicts and flows"
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 10_000))
    (fun seed ->
      let sc = Sc.generate ~tenants:2 ~seed ~leak:`Dropped_deny () in
      Summaries.clear ();
      let rel = R.build ~config:(jobs_config ~jobs:1).Q.engine sc.Sc.sc_fab in
      let a, b = List.hd sc.Sc.sc_planted and c, d = List.hd sc.Sc.sc_safe in
      let props =
        [
          Click.Config.Isolate (c, d);
          Click.Config.Isolate (a, b);
          Click.Config.Reach (a, "wan");
        ]
      in
      let query jobs p =
        let r = Q.run ~config:(jobs_config ~jobs) rel p in
        (query_sig r.Q.verdict, r.Q.depth)
      in
      let crash jobs =
        let c = Q.verify_crash ~config:(jobs_config ~jobs) rel in
        (query_sig c.Q.c_verdict, c.Q.c_paths, c.Q.c_max_instrs)
      in
      let paths ?pool () =
        let q = Q.make_qctx ?pool rel (jobs_config ~jobs:1) in
        List.map
          (fun (_, ingress) ->
            List.map
              (fun (fp : R.fpath) ->
                (fp.R.fp_end, fp.R.fp_st.Vdp_verif.Compose.instr_hi))
              (Q.paths_from q ingress))
          sc.Sc.sc_fab.F.ingresses
      in
      List.for_all (fun p -> query 1 p = query 4 p) props
      && crash 1 = crash 4
      && paths () = Pool.with_pool 4 (fun pool -> paths ~pool ()))

let tests =
  pool_tests @ interning_tests @ summaries_tests
  @ List.map QCheck_alcotest.to_alcotest
      [ crash_differential; bound_differential; reach_differential ]
  @ fixed_differential_tests
  @ [ QCheck_alcotest.to_alcotest fabric_differential ]
  @ certified_parallel_tests
