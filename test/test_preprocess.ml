(* Differential testing of the word-level preprocessor: the solver
   must give the same answer with preprocessing on and off, on random
   conjunctions and end-to-end on the example pipelines, and every Sat
   model must satisfy the *original* conjunction (exercising the
   completion of eliminated variables). *)

module T = Vdp_smt.Term
module B = Vdp_bitvec.Bitvec
module Solver = Vdp_smt.Solver
module Preprocess = Vdp_smt.Preprocess
module Eval = Vdp_smt.Eval
module V = Vdp_verif.Verifier
module Summaries = Vdp_verif.Summaries
module Click = Vdp_click

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let px = T.var "px" 4
let py = T.var "py" 4
let pz = T.var "pz" 4
let c4 n = T.bv_int ~width:4 n

(* {1 Unit checks of individual passes, observed through the solver} *)

let vars_used terms =
  Solver.reset_stats ();
  let r = Solver.check terms in
  (r, Solver.stats.Solver.sat_vars, Solver.stats.Solver.sat_clauses)

let unit_tests =
  [
    Alcotest.test_case "equality substitution shrinks the SAT problem"
      `Quick (fun () ->
        let k = T.var "pk" 4 in
        let q = [ T.eq k (T.add px py); T.ult k pz; T.ule py px ] in
        let r1, v1, c1 = vars_used q in
        Solver.reset_stats ();
        let r0 = Solver.check ~preprocess:false q in
        let v0 = Solver.stats.Solver.sat_vars in
        let c0 = Solver.stats.Solver.sat_clauses in
        check_bool "same answer" true
          ((match r1 with Solver.Sat _ -> true | _ -> false)
          = (match r0 with Solver.Sat _ -> true | _ -> false));
        check_bool "fewer vars" true (v1 < v0);
        check_bool "fewer clauses" true (c1 < c0));
    Alcotest.test_case "eliminated variables reappear in the model" `Quick
      (fun () ->
        let k = T.var "pk2" 4 in
        let q = [ T.eq k (T.add px py); T.ult k pz ] in
        match Solver.check q with
        | Solver.Sat m ->
          check_bool "model mentions k and satisfies the original" true
            (List.for_all (Eval.eval_bool m) q)
        | _ -> Alcotest.fail "expected sat");
    Alcotest.test_case "unconstrained upper bound is dropped" `Quick
      (fun () ->
        let lone = T.var "lone" 4 in
        let p = Preprocess.run [ T.ule lone (c4 3); T.ult px py ] in
        check_int "one conjunct eliminated" 1 p.Preprocess.eliminated;
        (* and its binding completes any model of the residue *)
        match Solver.check [ T.ule lone (c4 3); T.ult px py ] with
        | Solver.Sat m ->
          check_bool "lone bound in completed model" true
            (Eval.eval_bool m (T.ule lone (c4 3)))
        | _ -> Alcotest.fail "expected sat");
    Alcotest.test_case "all-defaults component is sliced away" `Quick
      (fun () ->
        (* Both variables occur twice, so unconstrained elimination
           leaves the component alone; it is satisfied by the all-zero
           default model and disconnected from the px/py conjunct, so
           slicing drops it whole. *)
        let u = T.var "pu" 4 and v = T.var "pv" 4 in
        let p =
          Preprocess.run [ T.ule u v; T.ule v u; T.ult px py ]
        in
        check_bool "sliced" true (p.Preprocess.sliced >= 1);
        (* the sliced variables still get default bindings in models *)
        match Solver.check [ T.ule u v; T.ule v u; T.ult px py ] with
        | Solver.Sat m ->
          check_bool "completed model satisfies the sliced conjuncts" true
            (Eval.eval_bool m (T.and_ [ T.ule u v; T.ule v u ]))
        | _ -> Alcotest.fail "expected sat");
    Alcotest.test_case "contradiction survives preprocessing" `Quick
      (fun () ->
        let k = T.var "pk3" 4 in
        let q =
          [ T.eq k (T.add px py); T.ult k pz; T.ule pz px; T.ult px k;
            T.ule py (c4 0) ]
        in
        check_bool "same (unsat) answer" true
          (Solver.check q = Solver.check ~preprocess:false q));
  ]

(* {1 Randomized differential, >= 1000 conjunctions} *)

(* Conjunctions over three 4-bit variables with definition equalities
   mixed in, shaped like composite Step-2 conditions. *)
let gen_conj : T.t list QCheck.Gen.t =
  let open QCheck.Gen in
  let atomv = oneof [ return px; return py; return pz ] in
  let rec bv_term depth =
    if depth = 0 then
      oneof [ atomv; map (fun n -> c4 n) (int_bound 15) ]
    else
      let sub = bv_term (depth - 1) in
      oneof
        [
          map2 T.add sub sub; map2 T.sub sub sub; map2 T.band sub sub;
          map2 T.bor sub sub; map2 T.bxor sub sub; map T.bnot sub; sub;
        ]
  in
  let atom =
    oneof
      [
        map2 T.ult (bv_term 1) (bv_term 1);
        map2 T.ule (bv_term 1) (bv_term 1);
        map2 T.eq (bv_term 1) (bv_term 1);
        map2 (fun a b -> T.not_ (T.eq a b)) (bv_term 1) (bv_term 1);
      ]
  in
  (* a definition conjunct for a fresh-ish variable, the food of the
     equality-substitution pass *)
  let def =
    map2
      (fun i t -> T.eq (T.var (Printf.sprintf "pd%d" i) 4) t)
      (int_bound 3) (bv_term 1)
  in
  let* n = int_range 1 4 in
  let* atoms = list_repeat n atom in
  let* ndefs = int_bound 2 in
  let* defs = list_repeat ndefs def in
  (* use the defined variables somewhere so substitution has work *)
  let uses =
    List.map
      (fun (d : T.t) ->
        match d.T.node with
        | T.Eq (x, _) -> T.ule x (T.add px py)
        | _ -> T.tru)
      defs
  in
  return (atoms @ defs @ uses)

let differential_test =
  QCheck.Test.make ~count:1000
    ~name:"preprocessing on/off agree (and Sat models check out)"
    (QCheck.make
       ~print:(fun ts -> String.concat " /\\ " (List.map T.to_string ts))
       gen_conj)
    (fun terms ->
      let on = Solver.check terms in
      let off = Solver.check ~preprocess:false terms in
      match (on, off) with
      | Solver.Sat m, Solver.Sat m' ->
        List.for_all (Eval.eval_bool m) terms
        && List.for_all (Eval.eval_bool m') terms
      | Solver.Unsat, Solver.Unsat -> true
      | Solver.Unknown, _ | _, Solver.Unknown -> QCheck.assume_fail ()
      | _ -> false)

(* {1 Substitution limited to the conjuncts that mention the variable}

   The reference loop rewrites every remaining conjunct in every
   equality-substitution round. [Preprocess.run] rewrites only the
   conjuncts whose free variables include the eliminated one; residual,
   trace and bindings must come out identical, down to hash-consed
   identity. *)

module P = Preprocess

let reference_run terms : P.result =
  let conjs = ref (P.resplit (P.split_list terms)) in
  let bindings = ref [] and trace = ref [] and eliminated = ref 0 in
  let contradiction () = List.exists T.is_false !conjs in
  let rounds = ref 0 and changed = ref true in
  while !changed && (not (contradiction ())) && !rounds < P.max_rounds do
    incr rounds;
    changed := false;
    let rec pick_def seen = function
      | [] -> None
      | c :: rest -> (
        match P.as_definition c with
        | Some (n, rhs) -> Some (n, rhs, c, List.rev_append seen rest)
        | None -> pick_def (c :: seen) rest)
    in
    match pick_def [] !conjs with
    | Some (n, rhs, c, rest) ->
      let subst v _ = if String.equal v n then Some rhs else None in
      conjs := P.resplit (List.map (T.substitute_vars subst) rest);
      bindings := P.Def (n, rhs) :: !bindings;
      trace := P.T_def (n, rhs, c) :: !trace;
      incr eliminated;
      changed := true
    | None ->
      let counts = P.occurrence_counts !conjs in
      let rec drop = function
        | [] -> []
        | c :: rest -> (
          match P.as_unconstrained counts c with
          | Some b ->
            List.iter
              (fun v -> Hashtbl.replace counts v max_int)
              (P.var_names c);
            bindings := b :: !bindings;
            trace := P.T_unconstrained (b, c) :: !trace;
            incr eliminated;
            changed := true;
            drop rest
          | None -> c :: drop rest)
      in
      conjs := drop !conjs
  done;
  if contradiction () then
    { P.conjuncts = [ T.fls ]; key = T.fls; bindings = !bindings;
      trace = List.rev !trace; eliminated = !eliminated; sliced = 0 }
  else
    let kept, dropped, slice_bindings = P.slice !conjs in
    let trace = if dropped = [] then !trace else P.T_slice dropped :: !trace in
    let key = T.and_ kept in
    let conjuncts =
      match key.T.node with
      | T.And ts -> Array.to_list ts
      | T.True -> []
      | _ -> [ key ]
    in
    { P.conjuncts; key; bindings = slice_bindings @ !bindings;
      trace = List.rev trace; eliminated = !eliminated;
      sliced = List.length dropped }

let same_terms = List.equal T.equal

let same_binding a b =
  match (a, b) with
  | P.Def (n, t), P.Def (m, u) | P.Diseq (n, t), P.Diseq (m, u) ->
    String.equal n m && T.equal t u
  | _ -> false

let same_step a b =
  match (a, b) with
  | P.T_def (n, r, c), P.T_def (m, r', c') ->
    String.equal n m && T.equal r r' && T.equal c c'
  | P.T_unconstrained (b, c), P.T_unconstrained (b', c') ->
    same_binding b b' && T.equal c c'
  | P.T_slice ds, P.T_slice ds' -> same_terms ds ds'
  | _ -> false

(* [run] and [reference_run] agree, and every input conjunct that no
   step eliminated, dropped or substituted into survives into the
   residual as the very same term. *)
let agrees_with_reference terms =
  let r = P.run terms and r' = reference_run terms in
  let defined =
    List.filter_map (function P.T_def (n, _, _) -> Some n | _ -> None) r.P.trace
  in
  let dropped =
    List.concat_map
      (function
        | P.T_def (_, _, c) | P.T_unconstrained (_, c) -> [ c ]
        | P.T_slice ds -> ds)
      r.P.trace
  in
  let untouched c =
    (not (List.exists (fun n -> P.occurs n c) defined))
    && not (List.memq c dropped)
  in
  r.P.key == r'.P.key
  && same_terms r.P.conjuncts r'.P.conjuncts
  && List.equal same_step r.P.trace r'.P.trace
  && List.equal same_binding r.P.bindings r'.P.bindings
  && r.P.eliminated = r'.P.eliminated
  && r.P.sliced = r'.P.sliced
  && (T.is_false r.P.key
     || List.for_all
          (fun c -> List.memq c r.P.conjuncts)
          (List.filter untouched (P.resplit (P.split_list terms))))

(* Step-2-shaped conjunctions: a packet header read through field
   extracts, chains of definitions renaming one field stage by stage
   (the shape composition leaves behind), guards on each stage, and
   concat equalities for the splitter. Many rounds, most conjuncts
   untouched by each. *)
let gen_step2 : T.t list QCheck.Gen.t =
  let open QCheck.Gen in
  let hdr = T.var "s2hdr" 32 in
  let field i = T.extract ~hi:((8 * i) + 7) ~lo:(8 * i) hdr in
  let stage f k = T.var (Printf.sprintf "s2f%d!%d" f k) 8 in
  let c8 n = T.bv_int ~width:8 n in
  let* nfields = int_range 1 3 in
  let* depth = int_range 1 5 in
  let* ops =
    list_repeat (nfields * depth)
      (oneof
         [ return `Copy; map (fun n -> `Add n) (int_bound 255);
           map (fun n -> `And n) (int_bound 255) ])
  in
  let* guards =
    list_repeat (nfields * depth)
      (oneof
         [ return None; map (fun n -> Some (`Lt n)) (int_bound 255);
           map (fun n -> Some (`Ne n)) (int_bound 255) ])
  in
  let* cross = int_bound 255 in
  let ops = Array.of_list ops and guards = Array.of_list guards in
  let defs =
    List.concat
      (List.init nfields (fun f ->
           T.eq (stage f 0) (field f)
           :: List.init depth (fun k ->
                  let prev = stage f k and i = (f * depth) + k in
                  let rhs =
                    match ops.(i) with
                    | `Copy -> prev
                    | `Add n -> T.add prev (c8 n)
                    | `And n -> T.band prev (c8 n)
                  in
                  T.eq (stage f (k + 1)) rhs)))
  in
  let checks =
    List.concat
      (List.init nfields (fun f ->
           List.filter_map
             (fun k ->
               let s = stage f (k + 1) in
               match guards.((f * depth) + k) with
               | None -> None
               | Some (`Lt n) -> Some (T.ult s (c8 n))
               | Some (`Ne n) -> Some (T.not_ (T.eq s (c8 n))))
             (List.init depth Fun.id)))
  in
  let tail =
    [ T.eq (T.concat (stage 0 depth) (field 3)) (T.bv_int ~width:16 cross);
      T.ule (stage (nfields - 1) depth) (stage 0 depth) ]
  in
  let* order = shuffle_l (defs @ checks @ tail) in
  return order

let reference_tests =
  let prop name gen =
    QCheck.Test.make ~count:500 ~name
      (QCheck.make
         ~print:(fun ts -> String.concat " /\\ " (List.map T.to_string ts))
         gen)
      agrees_with_reference
  in
  Alcotest.test_case "untouched conjuncts come back physically equal" `Quick
    (fun () ->
      let k = T.var "pk4" 4 in
      let uses = T.ult k pz and other = T.ult px pz in
      let r = P.run [ T.eq k (T.add px py); uses; other; T.ule py px ] in
      check_bool "one definition eliminated" true
        (match r.P.trace with [ P.T_def ("pk4", _, _) ] -> true | _ -> false);
      check_bool "the untouched conjunct is the same term" true
        (List.memq other r.P.conjuncts);
      check_bool "the conjunct that mentioned k was rewritten" true
        (List.memq (T.ult (T.add px py) pz) r.P.conjuncts
        && not (List.exists (P.occurs "pk4") r.P.conjuncts)))
  :: List.map QCheck_alcotest.to_alcotest
       [ prop "matches rewrite-everything reference on random conjunctions"
           gen_conj;
         prop "matches rewrite-everything reference on Step-2-shaped queries"
           gen_step2 ]

(* {1 End-to-end: the example pipelines, every preprocessed refutation
   checked}

   Step 2 always preprocesses, so the end-to-end check is that every
   Unsat it derives survives an independent certificate check (which
   replays the elimination trace against the raw conjunction, or
   refutes the raw conjunction itself), and every Sat is replayed on
   the runtime by the verifier. *)

(* Works from both the source root and dune's test sandbox. *)
let example name =
  List.find Sys.file_exists [ "../examples/" ^ name; "examples/" ^ name ]

let certified = { V.default_config with V.certify = true }

let check_cert cert =
  check_bool "every refutation certified" true
    (cert <> None && Vdp_topo.Query.cert_complete cert)

let e2e_example name =
  Alcotest.test_case (Printf.sprintf "end-to-end examples/%s" name) `Slow
    (fun () ->
      let pl = Click.Config.parse_file (example name) in
      Summaries.clear ();
      Solver.Cache.clear Solver.shared_cache;
      let r = V.check_crash_freedom ~config:certified pl in
      check_bool "proved" true (r.V.verdict = V.Proved);
      check_cert r.V.cert)

let e2e_bound =
  Alcotest.test_case "end-to-end bound examples/router.click" `Slow
    (fun () ->
      let pl = Click.Config.parse_file (example "router.click") in
      Summaries.clear ();
      Solver.Cache.clear Solver.shared_cache;
      let r = V.instruction_bound ~config:certified pl in
      check_bool "bound found" true (r.V.bound <> None);
      check_bool "witness within the bound" true
        (match (r.V.measured, r.V.bound) with
        | Some m, Some b -> m <= b
        | _ -> false);
      check_cert r.V.b_cert)

let tests =
  unit_tests
  @ List.map QCheck_alcotest.to_alcotest [ differential_test ]
  @ reference_tests
  @ [
      e2e_example "router.click";
      e2e_example "firewall.click";
      e2e_bound;
    ]
