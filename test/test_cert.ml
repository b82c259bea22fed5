(* Proof certificates: the independent LRAT checker, the interval
   replay, certificate production/checking, and the audits the
   subsystem exists for — a mutated proof must be rejected, an Unknown
   must never certify, and certified answers must agree with brute
   force. *)

module B = Vdp_bitvec.Bitvec
module T = Vdp_smt.Term
module Sat = Vdp_smt.Sat
module Solver = Vdp_smt.Solver
module Model = Vdp_smt.Model
module Eval = Vdp_smt.Eval
module I = Vdp_smt.Interval
module D = Vdp_cert.Drat
module C = Vdp_cert.Certificate
module V = Vdp_verif.Verifier

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let is_ok = function Ok () -> true | Error _ -> false
let cert_ok = function Ok _ -> true | Error _ -> false

(* {1 Hand-crafted LRAT proofs}

   Literal encoding: variable [v] is [2v] positive, [2v+1] negative. A
   step is its literals and its hints: clause ids, numbering the CNF
   from 0, then the goal units, then the steps. *)

let pos v = 2 * v
let neg v = (2 * v) + 1

(* (v0 | v1)(~v0 | v1)(v0 | ~v1)(~v0 | ~v1), ids 0-3 — unsat, but not by
   unit propagation alone, so the empty clause needs a lemma. *)
let cnf2 =
  [
    [ pos 0; pos 1 ];
    [ neg 0; pos 1 ];
    [ pos 0; neg 1 ];
    [ neg 0; neg 1 ];
  ]

let check2 ?(nvars = 2) steps = D.check ~nvars ~cnf:cnf2 steps

(* The lemma (v1), id 4: assuming ~v1, clause 0 gives v0 and clause 1
   is falsified. *)
let lemma = ([| pos 1 |], [| 0; 1 |])

(* The empty clause, id 5: the lemma gives v1, clause 2 then gives v0
   and clause 3 is falsified. *)
let empty_hints = [| 4; 2; 3 |]
let valid2 = [ lemma; ([||], empty_hints) ]

(* [valid2] after a blocked lemma [(v2)], which no hint derives. *)
let with_blocked =
  [ ([| pos 2 |], [||]); ([| pos 1 |], [| 0; 1 |]); ([||], [| 5; 2; 3 |]) ]

let drat_hand_tests =
  [
    Alcotest.test_case "valid two-step proof accepted" `Quick (fun () ->
        check_bool "ok" true (is_ok (check2 valid2)));
    Alcotest.test_case "dropped clause rejected" `Quick (fun () ->
        (* Without the lemma, clause 2 is not unit at the root. *)
        check_bool "rejected" false (is_ok (check2 [ ([||], [| 2; 3 |]) ])));
    Alcotest.test_case "permuted steps rejected" `Quick (fun () ->
        check_bool "rejected" false
          (is_ok (check2 [ ([||], empty_hints); lemma ])));
    Alcotest.test_case "corrupted literal rejected" `Quick (fun () ->
        (* [v2] is fresh: assuming it false leaves clause 0 with two
           open literals, and the derivation it replaced is gone. *)
        check_bool "rejected" false
          (is_ok
             (check2 ~nvars:3
                [ ([| pos 2 |], snd lemma); ([||], empty_hints) ])));
    Alcotest.test_case "blocked (RAT-only) lemma rejected" `Quick (fun () ->
        (* [v2] occurs nowhere else, so [(v2)] is blocked — a valid RAT
           step — but no hint propagates its negation to a conflict.
           The producer never derives anything but RUP clauses, so a
           proof that needs a RAT step is not one of its proofs. *)
        check_bool "rejected" false (is_ok (check2 ~nvars:3 with_blocked)));
    Alcotest.test_case "literal out of range rejected" `Quick (fun () ->
        (* The proof above, but over the two variables it declares. *)
        check_bool "fresh variable" false (is_ok (check2 with_blocked));
        check_bool "negative literal" false
          (is_ok (check2 [ ([| -1 |], [||]); lemma; ([||], [| 5; 2; 3 |]) ]));
        check_bool "in the goal" false
          (is_ok (D.check ~goal:[| pos 5 |] ~nvars:2 ~cnf:cnf2 valid2)));
    Alcotest.test_case "root conflict needs no steps" `Quick (fun () ->
        (* No lemma: the empty step alone cites the clauses that
           conflict at the root. A proof with no empty step proves
           nothing, even when the CNF refutes itself. *)
        let refute_units = D.check ~nvars:1 ~cnf:[ [ pos 0 ]; [ neg 0 ] ] in
        check_bool "unit-refutable CNF" true
          (is_ok (refute_units [ ([||], [| 0; 1 |]) ]));
        check_bool "no empty step" false (is_ok (refute_units []));
        check_bool "goal implied by a unit" true
          (is_ok
             (D.check ~goal:[| pos 0 |] ~nvars:1 ~cnf:[ [ pos 0 ] ]
                [ ([||], [| 0; 1 |]) ]));
        check_bool "satisfiable CNF" false
          (is_ok (D.check ~nvars:1 ~cnf:[ [ pos 0 ] ] [ ([||], [| 0 |]) ])));
  ]

(* {1 Solver-produced proofs} *)

(* DIMACS-style helper: positive int [i] is variable [i-1] true. Solves
   on a tracking solver, whose trimmed cone is the proof. *)
let solve_tracked ?reduce_interval ?max_conflicts nvars clauses =
  let s = Sat.create ?reduce_interval () in
  Sat.enable_tracking s;
  let vars = Array.init nvars (fun _ -> Sat.new_var s) in
  List.iter
    (fun c ->
      Sat.add_clause s (List.map (fun l -> Sat.lit vars.(abs l - 1) (l > 0)) c))
    clauses;
  (Sat.solve ?max_conflicts s, s)

(* Pigeonhole: n+1 pigeons, n holes — unsat, needs real conflicts. *)
let pigeonhole n =
  let var p h = (p * n) + h + 1 in
  let each_pigeon =
    List.init (n + 1) (fun p -> List.init n (fun h -> var p h))
  in
  let no_share =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p1 < p2 then Some [ -var p1 h; -var p2 h ] else None)
              (List.init (n + 1) Fun.id))
          (List.init (n + 1) Fun.id))
      (List.init n Fun.id)
  in
  ((n + 1) * n, each_pigeon @ no_share)

(* The trimmed refutation of an unsat pigeonhole instance. *)
let pigeonhole_proof ?reduce_interval n =
  let nvars, clauses = pigeonhole n in
  let r, s = solve_tracked ?reduce_interval nvars clauses in
  check_bool "unsat" true (r = Sat.Unsat);
  match Sat.trimmed_proof s with
  | Some tp -> (s, tp)
  | None -> Alcotest.fail "expected a trimmed proof"

let check_trimmed ?(nvars_extra = 0) (tp : Sat.trimmed) steps =
  D.check ~goal:tp.Sat.goal ~nvars:(tp.Sat.nvars + nvars_extra) ~cnf:tp.Sat.cnf
    steps

let drat_solver_tests =
  [
    Alcotest.test_case "pigeonhole proof with deletions checks" `Quick
      (fun () ->
        (* An aggressive reduction interval forces clause-database
           reductions mid-search. A deleted clause stays in the
           antecedent log, so the cone may still cite it and the proof
           needs no deletions to check. *)
        let s, tp = pigeonhole_proof ~reduce_interval:20 5 in
        check_bool "deletions happened" true (Sat.num_learned_deleted s > 0);
        check_bool "proof checks" true (is_ok (check_trimmed tp tp.Sat.steps)));
    Alcotest.test_case "empty clause moved to front rejected" `Quick
      (fun () ->
        let _, tp = pigeonhole_proof 4 in
        let empty, rest =
          List.partition (fun (c, _) -> c = [||]) tp.Sat.steps
        in
        check_bool "has empty clause" true (empty <> []);
        check_bool "rejected" false (is_ok (check_trimmed tp (empty @ rest))));
    Alcotest.test_case "learned clauses weakened by a fresh literal" `Quick
      (fun () ->
        (* Injecting one fresh literal into every learned clause keeps
           each one RUP (assuming the fresh literal false turns the
           weakened clauses before it back into the originals) but
           destroys the derivation: nothing forces the fresh literal
           false, so a weakened clause cited by the empty step has it
           open and is not unit. *)
        let _, tp = pigeonhole_proof 4 in
        let fresh = 2 * tp.Sat.nvars in
        let corrupted =
          List.map
            (fun (c, h) ->
              if c = [||] then (c, h) else (Array.append [| fresh |] c, h))
            tp.Sat.steps
        in
        check_bool "rejected" false
          (is_ok (check_trimmed ~nvars_extra:1 tp corrupted)));
    Alcotest.test_case "unknown leaves no empty clause" `Quick (fun () ->
        let nvars, clauses = pigeonhole 6 in
        let r, s = solve_tracked ~max_conflicts:3 nvars clauses in
        check_bool "unknown" true (r = Sat.Unknown);
        check_bool "no trimmed proof" true (Sat.trimmed_proof s = None));
    Alcotest.test_case "refutation under an assumption proves its negation"
      `Quick (fun () ->
        (* Every pigeonhole clause guarded by [~sel]: the database is
           satisfiable, and unsat only under the assumption [sel]. *)
        let nvars, clauses = pigeonhole 4 in
        let s = Sat.create () in
        Sat.enable_tracking s;
        let vars = Array.init nvars (fun _ -> Sat.new_var s) in
        let sel = Sat.lit (Sat.new_var s) true in
        List.iter
          (fun c ->
            Sat.add_clause s
              (Sat.lit_not sel
              :: List.map (fun l -> Sat.lit vars.(abs l - 1) (l > 0)) c))
          clauses;
        check_bool "unsat under sel" true
          (Sat.solve ~assumptions:[ sel ] s = Sat.Unsat);
        match Sat.trimmed_proof ~assumptions:[ sel ] s with
        | None -> Alcotest.fail "expected a trimmed proof"
        | Some tp ->
          check_int "goal is one literal" 1 (Array.length tp.Sat.goal);
          check_bool "goal established" true
            (is_ok (check_trimmed tp tp.Sat.steps));
          check_bool "flipped goal rejected" false
            (is_ok
               (check_trimmed
                  { tp with Sat.goal = Array.map (fun l -> l lxor 1) tp.Sat.goal }
                  tp.Sat.steps));
          check_bool "no goal: the CNF itself is not refuted" false
            (is_ok (D.check ~nvars:tp.Sat.nvars ~cnf:tp.Sat.cnf tp.Sat.steps)));
  ]

(* {1 Certificate production and checking} *)

let v16 n = T.var ("tc" ^ n) 16
let c16 = T.bv_int ~width:16

(* Decide [q] on a fresh certifying context (sharing [cache], if any)
   and hand back the answer with the evidence the context kept. *)
let decide ?cache ?max_conflicts q =
  let ctx = Solver.create_ctx ?cache ~track_core:true () in
  Solver.assert_terms ctx q;
  let o = Solver.check_ctx ?max_conflicts ctx in
  (o, Solver.last_refutation ctx, Solver.asserted ctx)

(* The certificate of [q], from a fresh certifying context's evidence. *)
let produce ?max_conflicts q =
  let _, refutation, asserted = decide ?max_conflicts q in
  C.produce ?refutation ~key:(C.key_of asserted) asserted

let kind_of = function Ok c -> C.kind c | Error _ -> "error"

(* The one certificate kind each refutation case maps to. *)
let kind_named = function
  | Solver.Folded -> "folded"
  | Solver.Interval _ -> "interval"
  | Solver.Folded_pre _ -> "folded-pre"
  | Solver.Interval_pre _ -> "interval-pre"
  | Solver.Drat _ -> "drat-ctx"

let drat_payload_of = function
  | Ok { C.reason = C.R_drat p; _ } -> Some p
  | _ -> None

let certificate_tests =
  [
    Alcotest.test_case "folded certificate" `Quick (fun () ->
        let a = v16 "a" in
        let r = produce [ T.ult a a ] in
        check_bool "ok" true (cert_ok r);
        Alcotest.(check string) "kind" "folded" (kind_of r));
    Alcotest.test_case "interval certificate" `Quick (fun () ->
        let x = v16 "x" in
        let r = produce [ T.ult x (c16 5); T.ult (c16 10) x ] in
        check_bool "ok" true (cert_ok r);
        Alcotest.(check string) "kind" "interval" (kind_of r));
    Alcotest.test_case
      "drat certificate, preprocessing on and off: both read in context"
      `Quick (fun () ->
        (* [on]: elimination substitutes [k] away and the certificate
           replays that trace. [off]: nothing to eliminate, so the SAT
           core refutes the query as written. Both are read out of the
           deciding context. *)
        let a = v16 "a" and b = v16 "b" and c = v16 "c" and d = v16 "d" in
        let k = v16 "k" in
        let off = [ T.ule k c; T.ule c d; T.ult d k ] in
        let on = produce (T.eq k (T.add a b) :: off) in
        let off = produce off in
        check_bool "on ok" true (cert_ok on);
        check_bool "off ok" true (cert_ok off);
        Alcotest.(check string) "kind on" "drat-ctx" (kind_of on);
        Alcotest.(check string) "kind off" "drat-ctx" (kind_of off);
        match (drat_payload_of on, drat_payload_of off) with
        | Some p_on, Some p_off ->
          check_bool "on replays a trace" true (p_on.C.trace <> []);
          check_bool "off has none" true (p_off.C.trace = [])
        | _ -> Alcotest.fail "expected two drat certificates");
    Alcotest.test_case "satisfiable query does not certify" `Quick (fun () ->
        let a = v16 "a" and b = v16 "b" in
        check_bool "error" false (cert_ok (produce [ T.ult a b ])));
    Alcotest.test_case "tiny conflict budget cannot certify" `Quick
      (fun () ->
        let a = v16 "a" and b = v16 "b" and c = v16 "c" and d = v16 "d" in
        let k = v16 "k" in
        let q =
          [ T.eq k (T.add a b); T.ule k c; T.ule c d; T.ult d k ]
        in
        let o, refutation, _ = decide ~max_conflicts:0 q in
        check_bool "not decided" true (o = Solver.Unknown);
        check_bool "no evidence" true (refutation = None);
        check_bool "error" false (cert_ok (produce ~max_conflicts:0 q)));
    Alcotest.test_case "tampered interval explanation rejected" `Quick
      (fun () ->
        let x = v16 "x" in
        let q = [ T.ult x (c16 5); T.ult (c16 10) x ] in
        match produce q with
        | Error _ -> Alcotest.fail "expected an interval certificate"
        | Ok cert ->
          (* Re-point the certificate at a weaker query: the recorded
             atoms are no longer members of the conjunction. *)
          let weaker =
            {
              cert with
              C.query = [ T.ult x (c16 5) ];
              C.key = T.and_ [ T.ult x (c16 5) ];
            }
          in
          check_bool "rejected" false (is_ok (C.check weaker)));
    Alcotest.test_case "collector answers repeats by provenance" `Quick
      (fun () ->
        let a = v16 "ca" and b = v16 "cb" in
        let col = C.create_collector () in
        let q = [ T.ult a b; T.ule b a ] in
        let _, refutation, _ = decide q in
        let first = C.certify_refutation ?refutation col q in
        check_bool "first ok" true (cert_ok first);
        check_bool "first not cached" true
          (match first with
          | Ok { C.reason = C.R_cached _; _ } -> false
          | Ok _ -> true
          | Error _ -> false);
        let second = C.certify_refutation ?refutation col q in
        check_bool "second ok" true (cert_ok second);
        check_bool "second cached" true
          (match second with
          | Ok { C.reason = C.R_cached _; _ } -> true
          | _ -> false);
        let s = C.summary col in
        check_int "attempted" 2 s.C.attempted;
        check_int "certified" 2 s.C.certified;
        check_int "cached" 1 s.C.cached;
        check_int "failed" 0 s.C.failed);
  ]

(* {1 Backward trimming and proofs stored with the query cache} *)

(* Two raw queries that preprocess to the same residual: [q2] adds an
   equality-defined alias that elimination removes, so the raw keys (and
   the collector's provenance memo) differ while the preprocessed key —
   the query-cache key — coincides. *)
let pcache_q1 () =
  let a = v16 "pa" and b = v16 "pb" and c = v16 "pc" and d = v16 "pd" in
  let k = v16 "pk" in
  [ T.eq k (T.add a b); T.ule k c; T.ule c d; T.ult d k ]

let pcache_q2 () =
  let m = v16 "pm" and a = v16 "pa" and b = v16 "pb" in
  pcache_q1 () @ [ T.eq m (T.add b a) ]

(* Certify [pcache_q1] on one certifying context, then decide
   [pcache_q2] on a second one sharing its query cache; returns the
   collector and the second context's evidence. *)
let two_contexts () =
  let cache = Solver.Cache.create () in
  let col = C.create_collector () in
  let q1 = pcache_q1 () and q2 = pcache_q2 () in
  let _, refutation, _ = decide ~cache q1 in
  check_bool "first certified" true
    (cert_ok (C.certify_refutation ?refutation col q1));
  let o, refutation, _ = decide ~cache q2 in
  check_bool "second unsat" true (o = Solver.Unsat);
  (col, q2, refutation)

let trimming_tests =
  [
    Alcotest.test_case "trimmed solver proof: smaller, deletion-free, checks"
      `Quick (fun () ->
        (* The antecedent log vs its backward cone on a proof with real
           conflict activity (reductions included): the trimmed proof
           must drop derived clauses and still refute the cone-filtered
           CNF. *)
        let s, tp = pigeonhole_proof ~reduce_interval:20 5 in
        check_bool "strictly fewer derived clauses than logged" true
          (List.length tp.Sat.steps < Sat.num_derived s);
        check_bool "no goal without assumptions" true (tp.Sat.goal = [||]);
        check_bool "trimmed proof checks" true
          (is_ok (check_trimmed tp tp.Sat.steps)));
    Alcotest.test_case "certificate proofs are trimmed strictly smaller"
      `Quick (fun () ->
        match drat_payload_of (produce (pcache_q1 ())) with
        | None -> Alcotest.fail "expected a drat certificate"
        | Some p ->
          check_bool "trimmed below the logged derivations" true
            (List.length p.C.steps < p.C.untrimmed));
    Alcotest.test_case "proof-cache hit passes the independent checker"
      `Quick (fun () ->
        (* The second context gets [q2]'s residual from the query cache,
           with the first context's proof stored beside it. *)
        let col, q2, refutation = two_contexts () in
        check_bool "evidence is the stored proof" true
          (match refutation with
          | Some (Solver.Drat (_, p)) -> p.Solver.stored
          | _ -> false);
        let second = C.certify_refutation ?refutation col q2 in
        check_bool "second certified" true (cert_ok second);
        Alcotest.(check string) "kind" "drat-ctx" (kind_of second);
        let s = C.summary col in
        check_int "second came from the stored proof" 1 s.C.pcache_hits;
        check_int "nothing failed" 0 s.C.failed;
        (* The hit is evidence, not trust: its payload must stand alone
           under the independent checker. *)
        match drat_payload_of second with
        | None -> Alcotest.fail "expected a drat certificate"
        | Some p ->
          check_bool "stored payload re-checks" true
            (is_ok
               (D.check ~goal:p.C.goal ~nvars:p.C.nvars ~cnf:p.C.cnf
                  p.C.steps)));
    Alcotest.test_case "tampered cached proof is rejected, not trusted"
      `Quick (fun () ->
        let col, q2, refutation = two_contexts () in
        (* Gut the stored proof's CNF: every hint id now names the
           wrong clause or none — the checker must reject the payload
           whatever shape the proof had. *)
        let refutation =
          match refutation with
          | Some (Solver.Drat (pre, p)) ->
            Some
              (Solver.Drat
                 ( pre,
                   {
                     p with
                     Solver.trimmed = { p.Solver.trimmed with Sat.cnf = [] };
                   } ))
          | _ -> Alcotest.fail "expected a stored proof"
        in
        let second = C.certify_refutation ?refutation col q2 in
        check_bool "second rejected" false (cert_ok second);
        let s = C.summary col in
        check_int "one failure" 1 s.C.failed;
        check_int "no proof-cache hit on tampered payload" 0 s.C.pcache_hits);
  ]

(* {1 Randomized differential: certificates vs brute force}

   Step-2-shaped random queries over narrow vectors. Solver verdicts
   (preprocessing on and off) must agree with Eval-based enumeration,
   and every Unsat must yield a checkable certificate from the evidence
   a certifying context decided it with. *)

let brute_force terms =
  let key = T.and_ terms in
  let vars = T.free_vars key in
  let m = Model.create () in
  let rec go = function
    | [] -> Eval.eval_bool m key
    | (n, s) :: rest ->
      if Vdp_smt.Sort.is_bool s then
        (Model.set_bool m n false;
         go rest)
        ||
        (Model.set_bool m n true;
         go rest)
      else
        let w = Vdp_smt.Sort.width s in
        let rec try_v v =
          v < 1 lsl w
          && ((Model.set_bv m n (B.of_int ~width:w v);
               go rest)
             || try_v (v + 1))
        in
        try_v 0
  in
  go vars

let random_query st =
  let w = 3 in
  let names = [| "ra"; "rb"; "rc"; "rd" |] in
  let var i = T.var names.(i) w in
  let rand_var () = var (Random.State.int st 4) in
  let rand_const () = T.bv_int ~width:w (Random.State.int st 8) in
  let operand () =
    if Random.State.int st 3 = 0 then rand_const () else rand_var ()
  in
  let rand_term () =
    match Random.State.int st 6 with
    | 0 -> T.add (operand ()) (operand ())
    | 1 -> T.sub (operand ()) (operand ())
    | 2 -> T.band (operand ()) (operand ())
    | 3 -> T.ite (T.ult (rand_var ()) (operand ())) (operand ()) (operand ())
    | _ -> operand ()
  in
  let conjunct () =
    match Random.State.int st 5 with
    | 0 -> T.eq (rand_var ()) (rand_term ())  (* definition-shaped *)
    | 1 -> T.ule (rand_term ()) (rand_term ())
    | 2 -> T.ult (rand_term ()) (rand_term ())
    | 3 -> T.not_ (T.eq (rand_var ()) (rand_const ()))  (* diseq *)
    | _ -> T.eq (rand_term ()) (rand_const ())
  in
  List.init (2 + Random.State.int st 5) (fun _ -> conjunct ())

let differential_tests =
  [
    Alcotest.test_case "500 random queries: certificates vs brute force"
      `Quick (fun () ->
        let st = Random.State.make [| 0xC347 |] in
        let unsats = ref 0 in
        for i = 1 to 500 do
          let q = random_query st in
          let expect = brute_force q in
          let outcome ~preprocess =
            match Solver.check ~preprocess q with
            | Solver.Sat _ -> true
            | Solver.Unsat -> false
            | Solver.Unknown ->
              Alcotest.failf "query %d: unexpected Unknown" i
          in
          let on = outcome ~preprocess:true in
          let off = outcome ~preprocess:false in
          if on <> expect || off <> expect then
            Alcotest.failf "query %d: solver disagrees with brute force" i;
          if not expect then begin
            incr unsats;
            match produce q with
            | Ok cert ->
              if not (is_ok (C.check cert)) then
                Alcotest.failf "query %d: certificate fails recheck" i
            | Error e -> Alcotest.failf "query %d: uncertified: %s" i e
          end
        done;
        check_bool "a healthy share of queries were unsat" true
          (!unsats > 50));
  ]

(* {1 Verifier-level audits} *)

let find_example name =
  List.find Sys.file_exists [ "../examples/" ^ name; "examples/" ^ name ]

let load_example name =
  Vdp_click.Config.parse_file (find_example name)

let verifier_tests =
  [
    Alcotest.test_case "tiny solver budget reports Unknown, never Proved"
      `Quick (fun () ->
        (* With a one-conflict budget most Step-2 checks come back
           Unknown; an Unknown must poison the verdict on all three
           checkers, and nothing Unknown may be certified. The query
           cache starts cold: a query an earlier unbudgeted run left
           there would come back Unsat without running into the
           budget, and its certificate could not be rebuilt within
           one conflict. *)
        Solver.Cache.clear Solver.shared_cache;
        let pl = load_example "router.click" in
        let config =
          { V.default_config with V.solver_budget = 1; V.certify = true }
        in
        let not_proved = function V.Proved -> false | _ -> true in
        let clean = function
          | Some (c : C.summary) -> c.C.failed = 0
          | None -> false
        in
        let rc = V.check_crash_freedom ~config pl in
        check_bool "crash not Proved" true (not_proved rc.V.verdict);
        check_bool "crash certs clean" true (clean rc.V.cert);
        let rb = V.instruction_bound ~config pl in
        check_bool "bound not Proved" true (not_proved rb.V.b_verdict);
        check_bool "bound not exact" false rb.V.exact;
        check_bool "bound certs clean" true (clean rb.V.b_cert);
        let rr =
          V.check_reachability ~config
            ~bad:(function V.End_crash _ -> true | _ -> false)
            pl
        in
        check_bool "reach not Proved" true (not_proved rr.V.verdict);
        check_bool "reach certs clean" true (clean rr.V.cert));
    Alcotest.test_case "firewall crash freedom fully certified" `Quick
      (fun () ->
        let pl = load_example "firewall.click" in
        let config = { V.default_config with V.certify = true } in
        let r = V.check_crash_freedom ~config pl in
        check_bool "proved" true (r.V.verdict = V.Proved);
        match r.V.cert with
        | None -> Alcotest.fail "no certification summary"
        | Some c ->
          check_bool "refutations were certified" true (c.C.attempted > 0);
          check_int "none uncertified" 0 c.C.failed;
          check_int "all certified" c.C.attempted c.C.certified);
  ]

(* {1 In-context certificates}

   Refutations certified from the incremental context that decided
   them: the DRAT proof is the SAT core's cone under the check's
   selector, read out before the selector is retired. *)

(* Constant-free relations between the variables of [random_query]:
   interval reasoning learns nothing from them, so their refutations
   fall to the SAT core. *)
let random_relation st =
  let var () = T.var [| "ra"; "rb"; "rc"; "rd" |].(Random.State.int st 4) 3 in
  let term () =
    match Random.State.int st 4 with
    | 0 -> T.add (var ()) (var ())
    | 1 -> T.sub (var ()) (var ())
    | 2 -> T.bxor (var ()) (var ())
    | _ -> var ()
  in
  List.init (1 + Random.State.int st 3) (fun _ ->
      match Random.State.int st 4 with
      | 0 -> T.ule (term ()) (term ())
      | 1 -> T.ult (term ()) (term ())
      | 2 -> T.eq (term ()) (term ())
      | _ -> T.not_ (T.eq (term ()) (term ())))

(* Certify what [ctx] just refuted, from the evidence it kept. *)
let certify_in ctx =
  let q = Solver.asserted ctx in
  C.produce ?refutation:(Solver.last_refutation ctx) ~key:(C.key_of q) q

(* One SAT-decided refutation on a fresh context, and its payload. *)
let ctx_payload () =
  let ctx = Solver.create_ctx ~track_core:true () in
  let q = pcache_q1 () in
  Solver.assert_terms ctx q;
  check_bool "unsat" true (Solver.check_ctx ctx = Solver.Unsat);
  check_bool "decided by the SAT core" true
    (match Solver.last_refutation ctx with
    | Some (Solver.Drat _) -> true
    | _ -> false);
  match certify_in ctx with
  | Ok ({ C.reason = C.R_drat p; _ } as cert) when C.kind cert = "drat-ctx"
    ->
    (q, p)
  | Ok cert -> Alcotest.failf "expected drat-ctx, got %s" (C.kind cert)
  | Error e -> Alcotest.failf "uncertified: %s" e

let context_tests =
  [
    Alcotest.test_case "goal clause: established by the steps, or rejected"
      `Quick (fun () ->
        (* [cnf2] guarded by a selector [v2], ids 0-3: it implies [~v2],
           but only through the lemma [~v2 | v1], id 5. The goal's unit
           [v2] is id 4; the empty step cites it, then the lemma. *)
        let sel = pos 2 in
        let cnf = List.map (fun c -> neg 2 :: c) cnf2 in
        let lemma = ([| neg 2; pos 1 |], [| 0; 1 |]) in
        let refute = ([||], [| 4; 5; 2; 3 |]) in
        let goal_check ?goal steps = D.check ?goal ~nvars:3 ~cnf steps in
        check_bool "goal ~sel established" true
          (is_ok (goal_check ~goal:[| neg 2 |] [ lemma; refute ]));
        check_bool "goal needs the lemma" false
          (is_ok (goal_check ~goal:[| neg 2 |] [ ([||], [| 4; 2; 3 |]) ]));
        check_bool "flipped goal rejected" false
          (is_ok (goal_check ~goal:[| sel |] [ lemma; refute ]));
        check_bool "no goal: the CNF itself is not refuted" false
          (is_ok (goal_check [ lemma; refute ])));
    Alcotest.test_case "200 random checks on one context: in-context DRAT"
      `Quick (fun () ->
        (* No query cache: every check that gets past folding and the
           interval stages is decided by the SAT core of this one
           context, whose learned clauses and gates pile up across
           checks. Checks nest: each group shares a prefix scope. Every
           refutation is certified as exactly the kind its evidence
           names. *)
        let st = Random.State.make [| 0x1C7 |] in
        let ctx = Solver.create_ctx ~track_core:true () in
        let checks = ref 0 and in_context = ref 0 in
        while !checks < 240 do
          Solver.push ctx;
          Solver.assert_terms ctx (random_relation st);
          for _ = 1 to 4 do
            Solver.push ctx;
            Solver.assert_terms ctx (random_relation st @ random_relation st);
            incr checks;
            let expect = brute_force (Solver.asserted ctx) in
            (match Solver.check_ctx ctx with
            | Solver.Sat _ ->
              if not expect then
                Alcotest.failf "check %d: Sat, brute force says unsat" !checks
            | Solver.Unknown -> Alcotest.failf "check %d: Unknown" !checks
            | Solver.Unsat -> (
              if expect then
                Alcotest.failf "check %d: Unsat, brute force found a model"
                  !checks;
              let named =
                match Solver.last_refutation ctx with
                | Some r -> kind_named r
                | None -> Alcotest.failf "check %d: no evidence" !checks
              in
              match certify_in ctx with
              | Error e -> Alcotest.failf "check %d: uncertified: %s" !checks e
              | Ok cert ->
                if not (is_ok (C.check cert)) then
                  Alcotest.failf "check %d: certificate fails recheck" !checks;
                if C.kind cert <> named then
                  Alcotest.failf "check %d: evidence is %s but certified as %s"
                    !checks named (C.kind cert);
                if named = "drat-ctx" then incr in_context));
            Solver.pop ctx
          done;
          Solver.pop ctx
        done;
        check_bool "a healthy share were certified in context" true
          (!in_context >= 40));
    Alcotest.test_case "tampered in-context payloads are rejected" `Quick
      (fun () ->
        let q, p = ctx_payload () in
        let recheck p =
          is_ok
            (C.check { C.query = q; key = T.and_ q; reason = C.R_drat p })
        in
        check_bool "untampered payload checks" true (recheck p);
        let g = p.C.goal.(0) in
        let guards c = List.mem g c in
        (* Each root clause switches on one conjunct of the core, and no
           proper subset of this core is unsatisfiable. *)
        let rec drop_first_root = function
          | [] -> []
          | c :: rest when guards c -> rest
          | c :: rest -> c :: drop_first_root rest
        in
        check_bool "a root clause dropped" false
          (recheck { p with C.cnf = drop_first_root p.C.cnf });
        check_bool "goal selector flipped" false
          (recheck { p with C.goal = [| g lxor 1 |] });
        check_bool "unit ~sel added to the CNF" false
          (recheck { p with C.cnf = p.C.cnf @ [ [ g ] ] });
        let fresh = 2 * p.C.nvars in
        check_bool "selector in a non-binary clause" false
          (recheck
             {
               p with
               C.nvars = p.C.nvars + 2;
               cnf = [ g; fresh; fresh + 2 ] :: p.C.cnf;
             }));
    Alcotest.test_case "query-cache hit without a stored proof is re-decided"
      `Quick (fun () ->
        (* A context that keeps no proofs answers and fills the cache; a
           certifying context then finds an [Unsat] with no evidence,
           decides the query itself and upgrades the entry, so a third
           context hits the upgraded entry. *)
        let cache = Solver.Cache.create () in
        let q = pcache_q1 () in
        let first = Solver.create_ctx ~cache () in
        Solver.assert_terms first q;
        check_bool "first unsat" true (Solver.check_ctx first = Solver.Unsat);
        check_bool "no evidence kept" true
          (Solver.last_refutation first = None);
        let certify_next col =
          let ctx = Solver.create_ctx ~cache ~track_core:true () in
          Solver.assert_terms ctx q;
          check_bool "unsat" true (Solver.check_ctx ctx = Solver.Unsat);
          ( (Solver.ctx_stats ctx).Solver.cache_hits,
            C.certify_refutation ?refutation:(Solver.last_refutation ctx) col
              q )
        in
        let hits, r = certify_next (C.create_collector ()) in
        check_int "evidence-less entry is a miss" 0 hits;
        Alcotest.(check string) "kind" "drat-ctx" (kind_of r);
        (* A fresh collector: the same one would answer the repeated raw
           query by provenance. *)
        let col = C.create_collector () in
        let hits, r = certify_next col in
        check_int "upgraded entry hits" 1 hits;
        Alcotest.(check string) "kind" "drat-ctx" (kind_of r);
        let s = C.summary col in
        check_int "from the stored proof" 1 s.C.pcache_hits;
        check_int "nothing failed" 0 s.C.failed);
    Alcotest.test_case "query-cache hit reuses the stored in-context proof"
      `Quick (fun () ->
        (* As above, but the context that filled the cache tracked its
           proof: the hit carries it. *)
        let cache = Solver.Cache.create () in
        let q = pcache_q1 () in
        let first = Solver.create_ctx ~cache ~track_core:true () in
        Solver.assert_terms first q;
        check_bool "first unsat" true (Solver.check_ctx first = Solver.Unsat);
        let ctx = Solver.create_ctx ~cache ~track_core:true () in
        Solver.assert_terms ctx q;
        check_bool "second unsat" true (Solver.check_ctx ctx = Solver.Unsat);
        check_int "decided by the cache" 1
          (Solver.ctx_stats ctx).Solver.cache_hits;
        check_bool "evidence is the stored proof" true
          (match Solver.last_refutation ctx with
          | Some (Solver.Drat (_, p)) -> p.Solver.stored
          | _ -> false);
        Alcotest.(check string) "kind" "drat-ctx" (kind_of (certify_in ctx)));
    Alcotest.test_case "cached interval-pre refutation keeps its explanation"
      `Quick (fun () ->
        (* [y = x] hides the contradiction from the raw interval scan;
           elimination exposes it in the residual. The second query
           adds an alias, so its raw key differs but its residual hits
           the entry the first one stored with its explanation. *)
        let cache = Solver.Cache.create () in
        let x = v16 "ix" and y = v16 "iy" and z = v16 "iz" in
        let q1 = [ T.eq y x; T.ult x (c16 5); T.ult (c16 10) y ] in
        let q2 = T.eq z (T.add x y) :: q1 in
        let first = Solver.create_ctx ~cache () in
        Solver.assert_terms first q1;
        check_bool "first unsat" true (Solver.check_ctx first = Solver.Unsat);
        check_bool "decided on the residual" true
          (match Solver.last_refutation first with
          | Some (Solver.Interval_pre _) -> true
          | _ -> false);
        let ctx = Solver.create_ctx ~cache ~track_core:true () in
        Solver.assert_terms ctx q2;
        check_bool "second unsat" true (Solver.check_ctx ctx = Solver.Unsat);
        check_int "decided by the cache" 1
          (Solver.ctx_stats ctx).Solver.cache_hits;
        let r = certify_in ctx in
        check_bool "certified" true (cert_ok r);
        Alcotest.(check string) "kind" "interval-pre" (kind_of r));
  ]

(* {1 Elimination-trace replay}

   The checker re-checks each definition it substitutes and memoises
   free variables per conjunct in one table per domain. Tampered
   definitions must still be rejected, and a warm memo must change no
   outcome. *)

module P = Vdp_smt.Preprocess

(* [ctx_payload]'s certificate with the query and trace replaced. *)
let with_trace q p trace =
  { C.query = q; key = T.and_ q; reason = C.R_drat { p with C.trace } }

let rejected_with msg = function
  | Ok () -> false
  | Error e ->
    let n = String.length msg in
    let rec at i = i + n <= String.length e && (String.sub e i n = msg || at (i + 1)) in
    at 0

(* The same check from a fresh domain, whose memo starts empty. *)
let check_cold cert = Domain.join (Domain.spawn (fun () -> C.check cert))

let replay_tests =
  [
    Alcotest.test_case "tampered definitions are rejected" `Quick (fun () ->
        let q, p = ctx_payload () in
        let name, rhs, def =
          match p.C.trace with
          | P.T_def (n, rhs, c) :: _ -> (n, rhs, c)
          | _ -> Alcotest.fail "expected the trace to open with a definition"
        in
        let k = T.var name 16 in
        check_bool "untampered trace checks" true
          (is_ok (C.check (with_trace q p p.C.trace)));
        let without_def = List.filter (fun c -> not (T.equal c def)) q in
        (* The right-hand side mentions the variable it defines, so
           substituting it would not eliminate the variable. *)
        let cyclic = T.add rhs k in
        let cyclic_def = T.eq k cyclic in
        let trace' =
          P.T_def (name, cyclic, cyclic_def) :: List.tl p.C.trace
        in
        check_bool "self-referential definition rejected" true
          (rejected_with "mentions itself"
             (C.check (with_trace (cyclic_def :: without_def) p trace')));
        check_bool "missing definition conjunct rejected" true
          (rejected_with "is not in the set"
             (C.check (with_trace without_def p p.C.trace))));
    Alcotest.test_case "warm and cold replay memos agree" `Quick (fun () ->
        let q, p = ctx_payload () in
        let def =
          match p.C.trace with
          | P.T_def (_, _, c) :: _ -> c
          | _ -> Alcotest.fail "expected the trace to open with a definition"
        in
        let certs =
          [ with_trace q p p.C.trace;
            with_trace (List.filter (fun c -> not (T.equal c def)) q) p
              p.C.trace;
            with_trace q p [] ]
        in
        (* Warm this domain's memo with every conjunct first. *)
        List.iter (fun c -> ignore (C.check c)) certs;
        let verdicts =
          List.map (fun c -> (is_ok (C.check c), is_ok (check_cold c))) certs
        in
        check_bool "warm = cold" true
          (List.for_all (fun (warm, cold) -> warm = cold) verdicts);
        check_bool "valid accepted, tampered rejected" true
          (List.map fst verdicts = [ true; false; false ]));
    Alcotest.test_case "folded refutations are certified folded, not cached"
      `Quick (fun () ->
        (* Distinct conjunctions that fold all share the key [false];
           none is a repeat of another. *)
        let a = v16 "fa" and b = v16 "fb" in
        let col = C.create_collector () in
        let queries =
          [ [ T.ult a a ]; [ T.ult b b ]; [ T.ult a b; T.ult a a ];
            [ T.ult a a ] ]
        in
        List.iter
          (fun q ->
            check_bool "key folds" true (T.is_false (T.and_ q));
            let _, refutation, _ = decide q in
            match C.certify_refutation ?refutation col q with
            | Ok cert -> Alcotest.(check string) "kind" "folded" (C.kind cert)
            | Error e -> Alcotest.failf "uncertified: %s" e)
          queries;
        let s = C.summary col in
        check_int "all folded" 4 s.C.folded;
        check_int "none by provenance" 0 s.C.cached;
        check_int "all certified" 4 s.C.certified;
        check_int "none failed" 0 s.C.failed);
  ]

(* {1 Checksum-word relaxation}

   A refutation whose preprocessing set a checksum equation to [true]:
   the replay re-derives the relaxed conjunct itself, so a relax step
   that drops an atom under negation, records another relaxation, or
   names a conjunct the set does not hold is rejected. *)

let cksum_atom () =
  let c32 = T.bv_int ~width:32 in
  let fold u = T.add (T.band u (c32 0xffff)) (T.lshr u (c32 16)) in
  let byte i = T.var (Printf.sprintf "tk%d" i) 8 in
  let sum =
    List.fold_left
      (fun acc i -> T.add acc (T.zext 32 (T.concat (byte (2 * i)) (byte ((2 * i) + 1)))))
      (c32 0) (List.init 10 Fun.id)
  in
  T.eq (T.extract ~hi:15 ~lo:0 (fold (fold sum))) (c16 0xffff)

(* [pcache_q1] beside a checksum over free bytes, refuted in context,
   and its relax step. *)
let relaxed_payload () =
  let atom = cksum_atom () in
  let q = atom :: pcache_q1 () in
  let ctx = Solver.create_ctx ~track_core:true () in
  Solver.assert_terms ctx q;
  check_bool "unsat" true (Solver.check_ctx ctx = Solver.Unsat);
  match certify_in ctx with
  | Ok { C.reason = C.R_drat p; _ } -> (
    match List.find_opt (function P.T_relax _ -> true | _ -> false) p.C.trace with
    | Some (P.T_relax r) -> (atom, q, p, r)
    | _ -> Alcotest.fail "expected a relax step in the trace")
  | Ok cert -> Alcotest.failf "expected drat-ctx, got %s" (C.kind cert)
  | Error e -> Alcotest.failf "uncertified: %s" e

let with_relax q p (r : P.relax) r' =
  with_trace q p
    (List.map
       (function P.T_relax x when x == r -> P.T_relax r' | st -> st)
       p.C.trace)

let relax_tests =
  [
    Alcotest.test_case "tampered relax steps are rejected" `Quick (fun () ->
        let atom, q, p, r = relaxed_payload () in
        check_bool "untampered relax step checks" true
          (is_ok (C.check (with_trace q p p.C.trace)));
        check_bool "the atom was the conjunct" true
          (T.equal r.P.conj atom && T.is_true r.P.relaxed);
        let rest = List.filter (fun c -> not (T.equal c atom)) q in
        (* The atom also sits under a negation: setting it true there
           would strengthen the conjunct, not relax it. *)
        let flag = T.bool_var "tkflag" in
        let mixed = T.or_ [ T.and_ [ atom; flag ]; T.not_ atom ] in
        let dropped_everywhere = T.or_ [ flag; T.fls ] in
        let kept_negation = T.or_ [ flag; T.not_ atom ] in
        check_bool "relaxing under negation rejected" true
          (rejected_with "does not match"
             (C.check
                (with_relax (mixed :: rest) p r
                   { r with P.conj = mixed; relaxed = dropped_everywhere })));
        check_bool "an atom left under negation rejected" true
          (rejected_with "non-And/Or"
             (C.check
                (with_relax (mixed :: rest) p r
                   { r with P.conj = mixed; relaxed = kept_negation })));
        check_bool "a relaxation other than the replacement rejected" true
          (rejected_with "does not match"
             (C.check (with_relax q p r { r with P.relaxed = T.fls })));
        check_bool "a conjunct missing from the set rejected" true
          (rejected_with "is not in the set" (C.check (with_trace rest p p.C.trace))));
    Alcotest.test_case "certified runs keep their per-kind counts" `Slow
      (fun () ->
        (* Relaxing checksum equations must move no refutation from one
           certificate kind to another. *)
        let kinds (c : C.summary) =
          [ c.C.certified; c.C.attempted; c.C.folded; c.C.interval; c.C.drat;
            c.C.drat_ctx; c.C.pcache_hits; c.C.cached ]
        in
        let config = { V.default_config with V.certify = true } in
        List.iter
          (fun (name, expect) ->
            Vdp_verif.Summaries.clear ();
            Solver.Cache.clear Solver.shared_cache;
            let r = V.check_crash_freedom ~config (load_example name) in
            match r.V.cert with
            | Some c -> Alcotest.(check (list int)) name expect (kinds c)
            | None -> Alcotest.fail "no certification summary")
          [ ("router.click", [ 783; 783; 120; 37; 626; 626; 0; 0 ]);
            ("firewall.click", [ 671; 671; 101; 466; 104; 104; 0; 0 ]);
            ("netflow_nat.click", [ 3933; 3933; 3468; 1; 464; 370; 94; 0 ]) ];
        Vdp_verif.Summaries.clear ();
        Solver.Cache.clear Solver.shared_cache;
        let module Q = Vdp_topo.Query in
        let fab = Vdp_topo.Fabric.of_source (find_example "multi_tenant.click") in
        let rel = Vdp_topo.Relation.build fab in
        let config = { Q.default_config with Q.certify = true } in
        let counts =
          List.map
            (fun prop ->
              match (Q.run ~config rel prop).Q.cert with
              | Some c -> (Q.prop_to_string prop, kinds c)
              | None -> Alcotest.fail "no certification summary")
            fab.Vdp_topo.Fabric.props
        in
        List.iter
          (fun (name, expect) ->
            Alcotest.(check (list int)) name expect (List.assoc name counts))
          [ ("reach a -> wan_out", [ 1; 1; 0; 0; 1; 1; 0; 0 ]);
            ("reach b -> wan_out", [ 1; 1; 0; 0; 1; 1; 0; 0 ]);
            ("isolate a -> lan_b", [ 0; 0; 0; 0; 0; 0; 0; 0 ]);
            ("isolate b -> lan_a", [ 0; 0; 0; 0; 0; 0; 0; 0 ]);
            ("temporal wan -> lan_a", [ 16; 16; 0; 0; 16; 16; 0; 0 ]);
            ("temporal wan -> lan_b", [ 31; 31; 0; 0; 31; 31; 0; 0 ]) ]);
  ]

(* {1 Tampered hints}

   [valid2] with one hint changed at a time: each check must fail. *)
let hint_tests =
  [
    Alcotest.test_case "tampered hints rejected" `Quick (fun () ->
        let with_empty hints = check2 [ lemma; ([||], hints) ] in
        check_bool "dropped hint in the lemma" false
          (is_ok (check2 [ ([| pos 1 |], [| 0 |]); ([||], empty_hints) ]));
        check_bool "dropped hint in the empty step" false
          (is_ok (with_empty [| 4; 3 |]));
        check_bool "reordered: clause 2 is not unit first" false
          (is_ok (with_empty [| 2; 4; 3 |]));
        check_bool "forward hint" false
          (is_ok (check2 [ ([| pos 1 |], [| 5; 1 |]); ([||], empty_hints) ]));
        check_bool "hint to the step itself" false
          (is_ok (with_empty [| 5; 4; 2; 3 |]));
        check_bool "hint to a satisfied clause" false
          (is_ok (with_empty [| 4; 0; 2; 3 |]));
        check_bool "hint id past the last clause" false
          (is_ok (with_empty [| 4; 2; 99 |]));
        check_bool "negative hint id" false
          (is_ok (with_empty [| -1; 4; 2; 3 |])));
    Alcotest.test_case "solver proofs need their hints" `Quick (fun () ->
        let _, tp = pigeonhole_proof 4 in
        check_bool "as produced" true (is_ok (check_trimmed tp tp.Sat.steps));
        check_bool "hints stripped" false
          (is_ok
             (check_trimmed tp
                (List.map (fun (c, _) -> (c, [||])) tp.Sat.steps))));
    Alcotest.test_case "incremental refutations under assumptions check"
      `Quick (fun () ->
        (* Random 3-CNFs grown between solves under up to three
           assumptions, with the odd unit, empty clause and
           [simplify]: refutations end in a learned empty clause, a
           level-0 conflict, an asserted empty clause, or an assumption
           implied false at level 0 or above it. Every one must check. *)
        let st = Random.State.make [| 0x1A7 |] in
        let refuted = ref 0 in
        for _ = 1 to 300 do
          let s = Sat.create () in
          Sat.enable_tracking s;
          let nvars = 3 + Random.State.int st 10 in
          let vars = Array.init nvars (fun _ -> Sat.new_var s) in
          let rlit () =
            Sat.lit vars.(Random.State.int st nvars) (Random.State.bool st)
          in
          for _ = 1 to 4 do
            for _ = 1 to nvars do
              Sat.add_clause s
                (List.init (1 + Random.State.int st 3) (fun _ -> rlit ()))
            done;
            if Random.State.int st 40 = 0 then Sat.add_clause s [];
            if Random.State.int st 4 = 0 then Sat.simplify s;
            let assumptions =
              List.init (Random.State.int st 4) (fun _ -> rlit ())
            in
            if Sat.solve ~assumptions s = Sat.Unsat then begin
              incr refuted;
              match Sat.trimmed_proof ~assumptions s with
              | None -> Alcotest.fail "no trimmed proof"
              | Some tp -> (
                match check_trimmed tp tp.Sat.steps with
                | Ok () -> ()
                | Error e -> Alcotest.failf "refutation rejected: %s" e)
            end
          done
        done;
        check_bool "a healthy share were refuted" true (!refuted > 100));
  ]

let tests =
  drat_hand_tests @ drat_solver_tests @ certificate_tests @ trimming_tests
  @ differential_tests @ verifier_tests @ context_tests @ replay_tests
  @ relax_tests @ hint_tests
