(* The incremental solver layer: push/pop scope semantics, the query
   cache, differential one-shot-vs-incremental checks on random
   constraints, Step-2 verdicts against the monolithic baseline, plus
   regressions for the newest-first composite condition lists and the
   Unknown-aware instruction bound. *)

module B = Vdp_bitvec.Bitvec
module T = Vdp_smt.Term
module Solver = Vdp_smt.Solver
module Model = Vdp_smt.Model
module Eval = Vdp_smt.Eval
module E = Vdp_symbex.Engine
module Click = Vdp_click
module V = Vdp_verif.Verifier
module Compose = Vdp_verif.Compose
module Summaries = Vdp_verif.Summaries

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let x = T.var "x" 8
let y = T.var "y" 8
let c n = T.bv_int ~width:8 n

let status = function
  | Solver.Sat _ -> `Sat
  | Solver.Unsat -> `Unsat
  | Solver.Unknown -> `Unknown

(* {1 Scope semantics} *)

let scope_tests =
  [
    Alcotest.test_case "pop retracts a contradiction" `Quick (fun () ->
        let ctx = Solver.create_ctx () in
        Solver.assert_terms ctx [ T.ult x (c 10) ];
        check_bool "base sat" true (status (Solver.check_ctx ctx) = `Sat);
        Solver.push ctx;
        Solver.assert_terms ctx [ T.ult (c 20) x ];
        check_bool "contradiction unsat" true
          (status (Solver.check_ctx ctx) = `Unsat);
        Solver.pop ctx;
        (* The same context must recover satisfiability. *)
        check_bool "sat after pop" true
          (status (Solver.check_ctx ctx) = `Sat);
        check_int "depth back to root" 0 (Solver.depth ctx));
    Alcotest.test_case "nested scopes accumulate and retract" `Quick
      (fun () ->
        let ctx = Solver.create_ctx () in
        Solver.assert_terms ctx [ T.ult x y ];
        Solver.push ctx;
        Solver.assert_terms ctx [ T.eq y (c 5) ];
        Solver.push ctx;
        Solver.assert_terms ctx [ T.eq x (c 7) ];
        check_bool "7 < 5 unsat" true
          (status (Solver.check_ctx ctx) = `Unsat);
        Solver.pop ctx;
        (match Solver.check_ctx ctx with
        | Solver.Sat m ->
          check_bool "model: x < 5" true
            (Eval.eval_bool m (T.ult x (c 5)))
        | _ -> Alcotest.fail "expected sat");
        Solver.pop ctx;
        check_bool "outer sat" true (status (Solver.check_ctx ctx) = `Sat));
    Alcotest.test_case "models remain valid across reuse" `Quick (fun () ->
        (* Many sat/unsat alternations on one context; every Sat answer
           must satisfy exactly the live assertions. *)
        let ctx = Solver.create_ctx () in
        Solver.assert_terms ctx [ T.ult x (c 100) ];
        for i = 0 to 30 do
          Solver.push ctx;
          let t =
            if i mod 3 = 2 then T.ult (c 200) x (* contradicts the root *)
            else T.eq (T.band x (c 3)) (c (i mod 4))
          in
          Solver.assert_terms ctx [ t ];
          (match Solver.check_ctx ctx with
          | Solver.Sat m ->
            List.iter
              (fun live ->
                check_bool "live assertion holds" true (Eval.eval_bool m live))
              (Solver.asserted ctx)
          | Solver.Unsat ->
            check_bool "only the contradiction is unsat" true (i mod 3 = 2)
          | Solver.Unknown -> Alcotest.fail "unexpected unknown");
          Solver.pop ctx
        done);
    Alcotest.test_case "pop on root scope is an error" `Quick (fun () ->
        let ctx = Solver.create_ctx () in
        Alcotest.check_raises "invalid_arg"
          (Invalid_argument "Solver.pop: no scope to pop") (fun () ->
            Solver.pop ctx));
    Alcotest.test_case "per-context stats are isolated" `Quick (fun () ->
        let a = Solver.create_ctx () in
        let b = Solver.create_ctx () in
        Solver.assert_terms a [ T.eq x (c 1) ];
        ignore (Solver.check_ctx a);
        ignore (Solver.check_ctx a);
        check_int "a counted" 2 (Solver.ctx_stats a).Solver.calls;
        check_int "b untouched" 0 (Solver.ctx_stats b).Solver.calls);
  ]

(* {1 Query cache} *)

let cache_tests =
  [
    Alcotest.test_case "hit on permuted conjunction" `Quick (fun () ->
        let cache = Solver.Cache.create () in
        let a = T.ult x y and b = T.ult y (c 50) in
        let h0 = Solver.stats.Solver.cache_hits in
        (match Solver.check ~cache [ a; b ] with
        | Solver.Sat _ -> ()
        | _ -> Alcotest.fail "expected sat");
        (* Same conjunction, different order: hash-consing makes the
           key identical, so this must be answered from the cache. *)
        (match Solver.check ~cache [ b; a ] with
        | Solver.Sat m ->
          check_bool "cached model valid" true
            (Eval.eval_bool m (T.and_ [ a; b ]))
        | _ -> Alcotest.fail "expected sat");
        check_int "one hit" (h0 + 1) Solver.stats.Solver.cache_hits;
        check_int "one entry" 1 (Solver.Cache.length cache));
    Alcotest.test_case "cached and uncached answers agree" `Quick (fun () ->
        let cache = Solver.Cache.create () in
        let queries =
          [
            [ T.eq x (c 3); T.eq y (c 4) ];
            [ T.ult x y; T.ult y x ];
            [ T.eq (T.add x y) (c 0) ];
            [ T.eq x (c 3); T.eq y (c 4) ] (* repeat: served from cache *);
          ]
        in
        List.iter
          (fun q ->
            check_bool "same status" true
              (status (Solver.check ~cache q) = status (Solver.check q)))
          queries);
    Alcotest.test_case "fifo eviction is bounded and counted" `Quick
      (fun () ->
        let cache = Solver.Cache.create ~capacity:4 () in
        let e0 = Solver.stats.Solver.cache_evictions in
        for i = 0 to 9 do
          (* [x = i] alone would be eliminated (and the query folded)
             by preprocessing before it ever reaches the cache, so
             exercise the FIFO mechanics with preprocessing off. *)
          ignore (Solver.check ~cache ~preprocess:false [ T.eq x (c i) ])
        done;
        check_int "length capped" 4 (Solver.Cache.length cache);
        check_int "evictions counted" (e0 + 6)
          Solver.stats.Solver.cache_evictions);
    Alcotest.test_case "hit across eliminated conjuncts" `Quick (fun () ->
        (* The cache is keyed on the *preprocessed* conjunction, so a
           query carrying an eliminable definition and an unconstrained
           bound must land on the same entry as its stripped core. *)
        let cache = Solver.Cache.create () in
        let k = T.var "kk8" 8 and lone = T.var "lone8" 8 in
        let core = [ T.ult x y; T.ult y (c 77) ] in
        let with_def =
          T.eq k (T.add x (c 1)) :: T.ule k (T.add x (c 1)) :: core
        in
        let with_lone = T.ule lone (c 3) :: core in
        let h0 = Solver.stats.Solver.cache_hits in
        (match Solver.check ~cache with_def with
        | Solver.Sat m ->
          check_bool "def model valid" true
            (List.for_all (Eval.eval_bool m) with_def)
        | _ -> Alcotest.fail "expected sat");
        check_int "one entry after the defining query" 1
          (Solver.Cache.length cache);
        (match Solver.check ~cache core with
        | Solver.Sat _ -> ()
        | _ -> Alcotest.fail "expected sat");
        (match Solver.check ~cache with_lone with
        | Solver.Sat m ->
          check_bool "lone model valid" true
            (List.for_all (Eval.eval_bool m) with_lone)
        | _ -> Alcotest.fail "expected sat");
        check_int "still one entry" 1 (Solver.Cache.length cache);
        check_int "both follow-ups were hits" (h0 + 2)
          Solver.stats.Solver.cache_hits);
    Alcotest.test_case "incremental contexts share a cache" `Quick (fun () ->
        let cache = Solver.Cache.create () in
        let run () =
          let ctx = Solver.create_ctx ~cache () in
          Solver.assert_terms ctx [ T.ult x (c 9); T.ult (c 3) x ];
          status (Solver.check_ctx ctx)
        in
        let h0 = Solver.stats.Solver.cache_hits in
        let first = run () in
        let second = run () in
        check_bool "both sat" true (first = `Sat && second = `Sat);
        check_bool "second answered from cache" true
          (Solver.stats.Solver.cache_hits > h0));
  ]

(* {1 Random differential: flat vs incremental} *)

(* Random boolean terms over two 4-bit variables (as in test_solver). *)
let gen_terms : T.t list QCheck.Gen.t =
  let open QCheck.Gen in
  let w = 4 in
  let var_x = T.var "bx" w and var_y = T.var "by" w in
  let bv_leaf =
    oneof
      [ return var_x; return var_y;
        map (fun n -> T.bv_int ~width:w n) (int_bound 15) ]
  in
  let bv_term =
    oneof
      [
        map2 T.add bv_leaf bv_leaf;
        map2 T.sub bv_leaf bv_leaf;
        map2 T.mul bv_leaf bv_leaf;
        map2 T.band bv_leaf bv_leaf;
        map2 T.bxor bv_leaf bv_leaf;
        map T.bnot bv_leaf;
        bv_leaf;
      ]
  in
  let atom =
    oneof
      [
        map2 T.ult bv_term bv_term;
        map2 T.ule bv_term bv_term;
        map2 T.slt bv_term bv_term;
        map2 T.eq bv_term bv_term;
        map (fun t -> T.not_ t) (map2 T.eq bv_term bv_term);
      ]
  in
  list_size (int_range 1 6) atom

let print_terms ts = String.concat " /\\ " (List.map T.to_string ts)

let random_differential =
  QCheck.Test.make ~count:200
    ~name:"incremental scopes agree with flat solving"
    (QCheck.make ~print:print_terms gen_terms)
    (fun terms ->
      let flat = status (Solver.check terms) in
      (* One scope per term, innermost checked — the same shape the
         verifier's DFS produces. *)
      let ctx = Solver.create_ctx () in
      List.iter
        (fun t ->
          Solver.push ctx;
          Solver.assert_terms ctx [ t ])
        terms;
      let inc = status (Solver.check_ctx ctx) in
      (* And after popping back to an earlier prefix, a re-check of the
         full list via fresh scopes must still agree. *)
      List.iter (fun _ -> Solver.pop ctx) terms;
      Solver.assert_terms ctx terms;
      let inc' = status (Solver.check_ctx ctx) in
      flat = inc && flat = inc')

let random_reuse =
  QCheck.Test.make ~count:60
    ~name:"context reuse across unrelated queries stays sound"
    (QCheck.make
       ~print:(fun (a, b) -> print_terms a ^ " || " ^ print_terms b)
       QCheck.Gen.(pair gen_terms gen_terms))
    (fun (q1, q2) ->
      (* Both queries through ONE context (learned clauses from q1
         retained while solving q2) vs fresh flat checks. *)
      let ctx = Solver.create_ctx () in
      let check_under q =
        Solver.push ctx;
        Solver.assert_terms ctx q;
        let r = status (Solver.check_ctx ctx) in
        Solver.pop ctx;
        r
      in
      check_under q1 = status (Solver.check q1)
      && check_under q2 = status (Solver.check q2))

(* {1 Pipeline differential + regressions} *)

let router_prefix k =
  let elements =
    [
      Click.Registry.make ~name:"cl" ~cls:"Classifier"
        ~config:[ "12/0800"; "-" ];
      Click.Registry.make ~name:"strip" ~cls:"Strip" ~config:[ "14" ];
      Click.Registry.make ~name:"chk" ~cls:"CheckIPHeader" ~config:[];
      Click.Registry.make ~name:"ttl" ~cls:"DecIPTTL" ~config:[];
    ]
  in
  Click.Pipeline.linear (List.filteri (fun i _ -> i < k) elements)

let config ~cache =
  {
    V.default_config with
    V.engine = { E.default_config with E.max_len = 128 };
    V.cache;
  }

let violated_nodes r =
  match r.V.verdict with
  | V.Violated vs -> List.sort_uniq compare (List.map (fun v -> v.V.node) vs)
  | _ -> []

(* The paper's whole-program baseline, with no composition: symbolically
   execute the inlined pipeline and check every crashing path directly.
   Returns the verdict and the nodes where a witness of each feasible
   crashing path crashes the runtime. *)
let monolithic pl =
  let engine_config =
    { Vdp_verif.Monolithic.default_engine_config with E.max_len = 128 }
  in
  let verdict =
    match Vdp_verif.Monolithic.check_crash_freedom ~engine_config pl with
    | Vdp_verif.Monolithic.Completed { verdict = `Proved; _ } -> `Proved
    | Vdp_verif.Monolithic.Completed { verdict = `Violated _; _ } -> `Violated
    | Vdp_verif.Monolithic.Did_not_finish _ ->
      Alcotest.fail "monolithic baseline did not finish"
  in
  let result = E.explore ~config:engine_config (Click.Inline.inline pl) in
  let nodes =
    List.filter_map
      (fun (seg : E.segment) ->
        match (seg.E.outcome, Solver.check seg.E.cond) with
        | E.O_crash _, Solver.Sat model -> (
          let pkt = Compose.witness_packet model ~max_len:128 in
          let inst = Click.Runtime.instantiate pl in
          match (Click.Runtime.push inst pkt).Click.Runtime.final with
          | Click.Runtime.Crashed_at (n, _) -> Some n
          | _ -> Alcotest.fail "monolithic witness does not crash")
        | _ -> None)
      result.E.segments
  in
  (verdict, List.sort_uniq compare nodes)

let pipeline_tests =
  [
    Alcotest.test_case "crash freedom: compositional matches monolithic" `Slow
      (fun () ->
        (* k=2 has real violations (short packets crash Strip), k=4 is
           proved — both verdict kinds are exercised. *)
        List.iter
          (fun k ->
            let pl = router_prefix k in
            Summaries.clear ();
            let r = V.check_crash_freedom ~config:(config ~cache:true) pl in
            let kind =
              match r.V.verdict with
              | V.Proved -> `Proved
              | V.Violated _ -> `Violated
              | V.Unknown m -> Alcotest.failf "k=%d: unknown (%s)" k m
            in
            let mono_kind, mono_nodes = monolithic pl in
            check_bool (Printf.sprintf "k=%d same verdict" k) true
              (kind = mono_kind);
            check_bool
              (Printf.sprintf "k=%d same violated nodes" k)
              true
              (violated_nodes r = mono_nodes))
          [ 2; 4 ]);
    Alcotest.test_case "instruction bound: uncached equals cached" `Slow
      (fun () ->
        let bound cache =
          Summaries.clear ();
          Solver.Cache.clear Solver.shared_cache;
          V.instruction_bound ~config:(config ~cache) (router_prefix 4)
        in
        let uncached = bound false in
        let cached = bound true in
        check_bool "bound found" true (uncached.V.bound <> None);
        check_bool "same bound" true (uncached.V.bound = cached.V.bound);
        check_bool "same exactness" true (uncached.V.exact = cached.V.exact));
    Alcotest.test_case "compose shares the condition prefix physically"
      `Quick (fun () ->
        Summaries.clear ();
        let entry =
          Summaries.summarize
            (Click.Registry.make ~name:"ttl" ~cls:"DecIPTTL" ~config:[])
        in
        let seg = List.hd entry.Summaries.result.E.segments in
        let st0 = Compose.initial ~assume:[ T.ult x y ] () in
        let st1 = Compose.apply st0 ~tag:"n0" seg in
        (* Newest-first: the delta is the head, the old list is the
           very tail — physically (no copy). *)
        let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
        let tail =
          drop (List.length st1.Compose.new_cond) st1.Compose.cond
        in
        check_bool "tail is st0.cond (physical)" true
          (tail == st0.Compose.cond);
        check_bool "delta is the head" true
          (List.length st1.Compose.cond
          = List.length st1.Compose.new_cond + List.length st0.Compose.cond));
    Alcotest.test_case "starved solver cannot yield an exact bound" `Quick
      (fun () ->
        (* With a 1-conflict budget most checks return Unknown; the
           bound must then be absent or marked inexact — never silently
           exact (the pre-fix behaviour skipped Unknown candidates). *)
        Summaries.clear ();
        let r =
          V.instruction_bound
            ~config:{ (config ~cache:false) with V.solver_budget = 1 }
            (router_prefix 3)
        in
        if r.V.b_stats.V.unknown_checks > 0 then
          check_bool "inexact under starvation" true
            (r.V.bound = None || not r.V.exact));
  ]

let tests =
  scope_tests @ cache_tests
  @ List.map QCheck_alcotest.to_alcotest [ random_differential; random_reuse ]
  @ pipeline_tests
