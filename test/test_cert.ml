(* Proof certificates: the independent DRAT checker, the interval
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

(* {1 Hand-crafted DRAT traces}

   Literal encoding: variable [v] is [2v] positive, [2v+1] negative. *)

let pos v = 2 * v
let neg v = (2 * v) + 1

(* (v0 | v1)(~v0 | v1)(v0 | ~v1)(~v0 | ~v1) — unsat, but not by unit
   propagation alone, so the empty clause is never RUP over the CNF by
   itself. *)
let cnf2 =
  [
    [ pos 0; pos 1 ];
    [ neg 0; pos 1 ];
    [ pos 0; neg 1 ];
    [ neg 0; neg 1 ];
  ]

let check2 ?expected_deletions steps =
  D.check ?expected_deletions ~nvars:2 ~cnf:cnf2 steps

let drat_hand_tests =
  [
    Alcotest.test_case "valid two-step proof accepted" `Quick (fun () ->
        check_bool "ok" true
          (is_ok (check2 [ D.Add [| pos 1 |]; D.Add [||] ])));
    Alcotest.test_case "valid proof with a deletion" `Quick (fun () ->
        (* The deletion must come after the lemma it supported; deleting
           [(v0 | v1)] first would make [v1] underivable. *)
        check_bool "ok" true
          (is_ok
             (check2 ~expected_deletions:1
                [
                  D.Add [| pos 1 |];
                  D.Delete [| pos 0; pos 1 |];
                  D.Add [||];
                ])));
    Alcotest.test_case "dropped clause rejected" `Quick (fun () ->
        (* Without the intermediate lemma the empty clause is not RUP. *)
        check_bool "rejected" false (is_ok (check2 [ D.Add [||] ])));
    Alcotest.test_case "permuted steps rejected" `Quick (fun () ->
        check_bool "rejected" false
          (is_ok (check2 [ D.Add [||]; D.Add [| pos 1 |] ])));
    Alcotest.test_case "corrupted literal rejected" `Quick (fun () ->
        (* [v2] is fresh: the clause is vacuously RAT (blocked), but the
           derivation it replaced is gone, so the empty clause fails. *)
        check_bool "rejected" false
          (is_ok (check2 [ D.Add [| pos 2 |]; D.Add [||] ])));
    Alcotest.test_case "omitted deletion rejected by count" `Quick (fun () ->
        check_bool "rejected" false
          (is_ok
             (check2 ~expected_deletions:1
                [ D.Add [| pos 1 |]; D.Add [||] ])));
    Alcotest.test_case "deleting an absent clause rejected" `Quick (fun () ->
        check_bool "rejected" false
          (is_ok (check2 [ D.Delete [| pos 0; pos 2 |] ])));
  ]

(* {1 Solver-produced proofs} *)

(* DIMACS-style helper: positive int [i] is variable [i-1] true. *)
let solve_logged ?reduce_interval ?max_conflicts nvars clauses =
  let s = Sat.create ?reduce_interval () in
  Sat.enable_proof s;
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

let proof_of s = (Sat.num_vars s, Sat.proof_cnf s, Sat.proof_steps s)

let to_drat steps =
  List.map
    (function Sat.P_add l -> D.Add l | Sat.P_delete l -> D.Delete l)
    steps

let drat_solver_tests =
  [
    Alcotest.test_case "pigeonhole proof with deletions checks" `Quick
      (fun () ->
        (* An aggressive reduction interval forces clause-database
           reductions mid-proof, so deletion logging (and the checker's
           root-assignment rebuild) is actually exercised. *)
        let nvars, clauses = pigeonhole 5 in
        let r, s = solve_logged ~reduce_interval:20 nvars clauses in
        check_bool "unsat" true (r = Sat.Unsat);
        let deletions =
          Sat.num_learned_deleted s + Sat.num_problem_deleted s
        in
        check_bool "deletions happened" true (deletions > 0);
        let nv, cnf, steps = proof_of s in
        check_bool "proof checks" true
          (is_ok
             (D.check ~expected_deletions:deletions ~nvars:nv ~cnf
                (to_drat steps))));
    Alcotest.test_case "empty clause moved to front rejected" `Quick
      (fun () ->
        let nvars, clauses = pigeonhole 4 in
        let r, s = solve_logged nvars clauses in
        check_bool "unsat" true (r = Sat.Unsat);
        let nv, cnf, steps = proof_of s in
        let steps = to_drat steps in
        let empty, rest =
          List.partition
            (function D.Add [||] -> true | _ -> false)
            steps
        in
        check_bool "has empty clause" true (empty <> []);
        check_bool "rejected" false
          (is_ok (D.check ~nvars:nv ~cnf (empty @ rest))));
    Alcotest.test_case "unlogged deletions rejected by count" `Quick
      (fun () ->
        let nvars, clauses = pigeonhole 5 in
        let r, s = solve_logged ~reduce_interval:20 nvars clauses in
        check_bool "unsat" true (r = Sat.Unsat);
        let deletions =
          Sat.num_learned_deleted s + Sat.num_problem_deleted s
        in
        let nv, cnf, steps = proof_of s in
        let without_deletes =
          List.filter
            (function D.Delete _ -> false | _ -> true)
            (to_drat steps)
        in
        check_bool "rejected" false
          (is_ok
             (D.check ~expected_deletions:deletions ~nvars:nv ~cnf
                without_deletes)));
    Alcotest.test_case "learned clauses weakened by a fresh literal" `Quick
      (fun () ->
        (* Injecting one fresh literal into every learned clause leaves
           each individually admissible (blocked on the fresh pivot) but
           destroys the derivation: once the fresh variable satisfies
           them all, only the original CNF is left, which is not
           unit-refutable. *)
        let nvars, clauses = pigeonhole 4 in
        let r, s = solve_logged nvars clauses in
        check_bool "unsat" true (r = Sat.Unsat);
        let nv, cnf, steps = proof_of s in
        let fresh = 2 * nv in
        let corrupted =
          List.map
            (function
              | D.Add l when Array.length l > 0 ->
                D.Add (Array.append [| fresh |] l)
              | st -> st)
            (to_drat steps)
        in
        check_bool "rejected" false
          (is_ok (D.check ~nvars:(nv + 1) ~cnf corrupted)));
    Alcotest.test_case "unknown leaves no empty clause" `Quick (fun () ->
        let nvars, clauses = pigeonhole 6 in
        let r, s = solve_logged ~max_conflicts:3 nvars clauses in
        check_bool "unknown" true (r = Sat.Unknown);
        let nv, cnf, steps = proof_of s in
        check_bool "no empty clause in trace" false
          (List.exists
             (function Sat.P_add [||] -> true | _ -> false)
             steps);
        check_bool "trace does not certify" false
          (is_ok (D.check ~nvars:nv ~cnf (to_drat steps))));
  ]

(* {1 Certificate production and checking} *)

let v16 n = T.var ("tc" ^ n) 16
let c16 = T.bv_int ~width:16

let produce q = C.produce q

(* The raw DRAT tier, reached directly: the conjunction blasted as
   written, with no preprocessing, and the certificate checked. *)
let produce_raw q =
  match C.blast_unsat ~preprocessed:false (Vdp_smt.Preprocess.identity q) with
  | Error e -> Error e
  | Ok payload ->
    let cert = { C.query = q; key = T.and_ q; reason = C.R_drat payload } in
    Result.map (fun () -> cert) (C.check cert)

let kind_of = function Ok c -> C.kind c | Error _ -> "error"

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
    Alcotest.test_case "drat certificate, preprocessing on and off" `Quick
      (fun () ->
        let a = v16 "a" and b = v16 "b" and c = v16 "c" and d = v16 "d" in
        let k = v16 "k" in
        let q =
          [ T.eq k (T.add a b); T.ule k c; T.ule c d; T.ult d k ]
        in
        let on = produce q in
        let off = produce_raw q in
        check_bool "on ok" true (cert_ok on);
        check_bool "off ok" true (cert_ok off);
        Alcotest.(check string) "kind on" "drat" (kind_of on);
        Alcotest.(check string) "kind off" "drat-raw" (kind_of off));
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
        check_bool "error" false
          (cert_ok (C.produce ~max_conflicts:0 q)));
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
        let first = C.certify_refutation col q in
        check_bool "first ok" true (cert_ok first);
        check_bool "first not cached" true
          (match first with
          | Ok { C.reason = C.R_cached _; _ } -> false
          | Ok _ -> true
          | Error _ -> false);
        let second = C.certify_refutation col q in
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

(* {1 Backward trimming and the proof cache} *)

(* Two raw queries that preprocess to the same residual: [q2] adds an
   equality-defined alias that elimination removes, so the raw keys (and
   the collector's provenance memo) differ while the preprocessed key —
   the proof-cache key — coincides. *)
let pcache_q1 () =
  let a = v16 "pa" and b = v16 "pb" and c = v16 "pc" and d = v16 "pd" in
  let k = v16 "pk" in
  [ T.eq k (T.add a b); T.ule k c; T.ule c d; T.ult d k ]

let pcache_q2 () =
  let m = v16 "pm" and a = v16 "pa" and b = v16 "pb" in
  pcache_q1 () @ [ T.eq m (T.add b a) ]

let drat_payload_of = function
  | Ok { C.reason = C.R_drat p; _ } -> Some p
  | _ -> None

let trimming_tests =
  [
    Alcotest.test_case "trimmed solver proof: smaller, deletion-free, checks"
      `Quick (fun () ->
        (* The forward log vs its backward cone on a proof with real
           conflict activity: the trimmed trace must drop clauses, keep
           no deletions, and still refute the cone-filtered CNF. *)
        let nvars, clauses = pigeonhole 5 in
        let s = Sat.create ~reduce_interval:20 () in
        Sat.enable_proof s;
        Sat.enable_tracking s;
        let vars = Array.init nvars (fun _ -> Sat.new_var s) in
        List.iter
          (fun c ->
            Sat.add_clause s
              (List.map (fun l -> Sat.lit vars.(abs l - 1) (l > 0)) c))
          clauses;
        check_bool "unsat" true (Sat.solve s = Sat.Unsat);
        let forward_adds =
          List.length
            (List.filter
               (function Sat.P_add _ -> true | _ -> false)
               (Sat.proof_steps s))
        in
        match Sat.trimmed_proof s with
        | None -> Alcotest.fail "expected a trimmed proof"
        | Some (cnf, steps) ->
          let adds =
            List.length
              (List.filter (function Sat.P_add _ -> true | _ -> false) steps)
          in
          let dels =
            List.length
              (List.filter
                 (function Sat.P_delete _ -> true | _ -> false)
                 steps)
          in
          check_bool "strictly fewer additions" true (adds < forward_adds);
          check_int "no deletions survive trimming" 0 dels;
          check_bool "trimmed proof checks" true
            (is_ok
               (D.check ~expected_deletions:0 ~nvars:(Sat.num_vars s) ~cnf
                  (to_drat steps))));
    Alcotest.test_case "certificate proofs are trimmed strictly smaller"
      `Quick (fun () ->
        match drat_payload_of (produce (pcache_q1 ())) with
        | None -> Alcotest.fail "expected a drat certificate"
        | Some p ->
          let adds =
            List.length
              (List.filter (function D.Add _ -> true | _ -> false) p.C.steps)
          in
          check_bool "trimmed below the forward log" true
            (adds < p.C.untrimmed);
          check_int "deletion-free" 0 p.C.deletions);
    Alcotest.test_case "proof-cache hit passes the independent checker"
      `Quick (fun () ->
        let col = C.create_collector () in
        check_bool "first certified" true
          (cert_ok (C.certify_refutation col (pcache_q1 ())));
        let second = C.certify_refutation col (pcache_q2 ()) in
        check_bool "second certified" true (cert_ok second);
        let s = C.summary col in
        check_int "second came from the proof cache" 1 s.C.pcache_hits;
        check_int "nothing failed" 0 s.C.failed;
        (* The hit is evidence, not trust: its payload must stand alone
           under the independent checker. *)
        match drat_payload_of second with
        | None -> Alcotest.fail "expected a drat certificate from the cache"
        | Some p ->
          check_bool "cached payload re-checks" true
            (is_ok
               (D.check ~expected_deletions:p.C.deletions ~nvars:p.C.nvars
                  ~cnf:p.C.cnf p.C.steps)));
    Alcotest.test_case "tampered cached proof is rejected, not trusted"
      `Quick (fun () ->
        let col = C.create_collector () in
        check_bool "first certified" true
          (cert_ok (C.certify_refutation col (pcache_q1 ())));
        (* Gut every cached proof's CNF: with nothing to propagate
           against, no derivation step is RUP/RAT and an empty trace
           derives no empty clause — the checker must reject the
           payload whatever shape the proof had. *)
        let tampered = Hashtbl.create 4 in
        Hashtbl.iter
          (fun id (p : C.drat_payload) ->
            Hashtbl.replace tampered id { p with C.cnf = [] })
          col.C.pcache;
        Hashtbl.reset col.C.pcache;
        Hashtbl.iter (Hashtbl.replace col.C.pcache) tampered;
        let second = C.certify_refutation col (pcache_q2 ()) in
        (* Certification must still succeed — by producing a fresh
           proof, never by accepting the tampered payload. *)
        check_bool "second certified" true (cert_ok second);
        let s = C.summary col in
        check_int "no proof-cache hit on tampered payload" 0 s.C.pcache_hits;
        match drat_payload_of second with
        | None -> Alcotest.fail "expected a fresh drat certificate"
        | Some p ->
          check_bool "fresh payload has a CNF again" true (p.C.cnf <> []);
          check_bool "fresh payload re-checks" true
            (is_ok
               (D.check ~expected_deletions:p.C.deletions ~nvars:p.C.nvars
                  ~cnf:p.C.cnf p.C.steps)));
  ]

(* {1 Randomized differential: certificates vs brute force}

   Step-2-shaped random queries over narrow vectors. Solver verdicts
   (preprocessing on and off) must agree with Eval-based enumeration,
   and every Unsat must yield a checkable certificate both with and
   without preprocessing. *)

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
            (match produce q with
            | Ok cert ->
              if not (is_ok (C.check cert)) then
                Alcotest.failf "query %d: certificate fails recheck" i
            | Error e ->
              Alcotest.failf "query %d: uncertified (preprocess on): %s" i e);
            match produce_raw q with
            | Ok cert ->
              if not (is_ok (C.check cert)) then
                Alcotest.failf "query %d: raw certificate fails recheck" i
            | Error e ->
              Alcotest.failf "query %d: uncertified (preprocess off): %s" i e
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

let tests =
  drat_hand_tests @ drat_solver_tests @ certificate_tests @ trimming_tests
  @ differential_tests @ verifier_tests
