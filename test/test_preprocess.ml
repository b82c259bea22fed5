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
  let solved = ref 0 in
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
      let invalidate c =
        List.iter (fun v -> Hashtbl.replace counts v max_int) (P.var_names c);
        changed := true
      in
      let rec drop = function
        | [] -> []
        | c :: rest -> (
          match P.as_unconstrained counts c with
          | Some b ->
            invalidate c;
            bindings := b :: !bindings;
            trace := P.T_unconstrained (b, c) :: !trace;
            incr eliminated;
            drop rest
          | None -> (
            match P.as_relaxation counts c with
            | Some (r, pins) ->
              invalidate c;
              bindings := pins @ (P.Word r :: !bindings);
              trace := P.T_relax r :: !trace;
              incr solved;
              P.resplit [ r.P.relaxed ] @ drop rest
            | None -> c :: drop rest))
      in
      conjs := drop !conjs
  done;
  if contradiction () then
    { P.conjuncts = [ T.fls ]; key = T.fls; bindings = !bindings;
      trace = List.rev !trace; eliminated = !eliminated; sliced = 0;
      solved = !solved }
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
      sliced = List.length dropped; solved = !solved }

let same_terms = List.equal T.equal

let same_relax (r : P.relax) (r' : P.relax) =
  T.equal r.P.conj r'.P.conj && T.equal r.P.relaxed r'.P.relaxed
  && same_terms r.P.atoms r'.P.atoms
  && String.equal r.P.hi r'.P.hi && String.equal r.P.lo r'.P.lo

let same_binding a b =
  match (a, b) with
  | P.Def (n, t), P.Def (m, u) | P.Diseq (n, t), P.Diseq (m, u) ->
    String.equal n m && T.equal t u
  | P.Word r, P.Word r' -> same_relax r r'
  | _ -> false

let same_step a b =
  match (a, b) with
  | P.T_def (n, r, c), P.T_def (m, r', c') ->
    String.equal n m && T.equal r r' && T.equal c c'
  | P.T_unconstrained (b, c), P.T_unconstrained (b', c') ->
    same_binding b b' && T.equal c c'
  | P.T_slice ds, P.T_slice ds' -> same_terms ds ds'
  | P.T_relax r, P.T_relax r' -> same_relax r r'
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
        | P.T_relax r -> [ r.P.conj ]
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
  && r.P.solved = r'.P.solved
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

(* {1 Checksum-word elimination}

   IPv4-style header checksums: [fold (fold s) = k] over the 16-bit
   words of a header of byte variables, as CheckIPHeader's loop leaves
   it after symbolic execution. *)

let c16 n = T.bv_int ~width:16 n
let c32 n = T.bv_int ~width:32 n
let fold u = T.add (T.band u (c32 0xffff)) (T.lshr u (c32 16))

let cksum ?(k = 0xffff) words =
  let s =
    List.fold_left (fun acc w -> T.add acc (T.zext 32 w)) (c32 0) words
  in
  T.eq (T.extract ~hi:15 ~lo:0 (fold (fold s))) (c16 k)

let byte p i = T.var (Printf.sprintf "%s%d" p i) 8
let word p i = T.concat (byte p (2 * i)) (byte p ((2 * i) + 1))
let header p n = List.init n (word p)

(* Every word of [p]'s header but [free] pinned down by a conjunct of
   its own, so only word [free] can be solved. *)
let others_fixed p n ~free =
  List.filter_map
    (fun i -> if i = free then None else Some (T.not_ (T.eq (word p i) (c16 0x1234))))
    (List.init n Fun.id)

let relax_steps (r : P.result) =
  List.filter (function P.T_relax _ -> true | _ -> false) r.P.trace

(* Same answer with preprocessing off, the Sat model checks out against
   the original, and [run] matches the reference loop. *)
let agrees_off terms =
  agrees_with_reference terms
  &&
  match (Solver.check terms, Solver.check ~preprocess:false terms) with
  | Solver.Sat m, Solver.Sat _ -> List.for_all (Eval.eval_bool m) terms
  | Solver.Unsat, Solver.Unsat -> true
  | _ -> false

let checksum_tests =
  [
    Alcotest.test_case "a free checksum field is solved, not blasted" `Quick
      (fun () ->
        let q = cksum (header "ca" 10) :: others_fixed "ca" 10 ~free:5 in
        let r = P.run q in
        check_int "one word solved" 1 r.P.solved;
        (match relax_steps r with
        | [ P.T_relax rx ] ->
          check_bool "the checksum field" true (rx.P.hi = "ca10" && rx.P.lo = "ca11");
          check_bool "the atom became true" true (T.is_true rx.P.relaxed)
        | _ -> Alcotest.fail "expected one relax step");
        check_bool "no residual conjunct mentions the field" true
          (not (List.exists (P.occurs "ca10") r.P.conjuncts));
        check_bool "agrees with preprocessing off" true (agrees_off q);
        Solver.reset_stats ();
        ignore (Solver.check q);
        check_int "counted" 1 Solver.stats.Solver.solved_words);
    Alcotest.test_case "a field rechecked downstream is not solved" `Quick
      (fun () ->
        (* DecIPTTL patches the checksum field, and a second check reads
           the patched field: its bytes occur in two conjuncts. *)
        let hdr = header "cb" 10 in
        let field = word "cb" 5 in
        let bumped = T.add (T.zext 32 field) (c32 0x0100) in
        let patched = T.extract ~hi:15 ~lo:0 (fold bumped) in
        let ttl' = T.concat (T.sub (byte "cb" 8) (T.bv_int ~width:8 1)) (byte "cb" 9) in
        let hdr' =
          List.mapi
            (fun i w -> if i = 5 then patched else if i = 4 then ttl' else w)
            hdr
        in
        let q = [ cksum hdr; cksum hdr' ] @ others_fixed "cb" 10 ~free:5 in
        check_int "nothing solved" 0 (P.run q).P.solved;
        check_bool "agrees with preprocessing off" true (agrees_off q));
    Alcotest.test_case "twice-summed words, negation, conjoined atoms" `Quick
      (fun () ->
        let hdr = header "cc" 10 in
        let fixed = others_fixed "cc" 10 ~free:5 in
        let twice = cksum (word "cc" 5 :: hdr) :: fixed in
        check_int "a word summed twice is not solved" 0 (P.run twice).P.solved;
        let negated = T.not_ (cksum hdr) :: fixed in
        check_int "an atom under not is not solved" 0 (P.run negated).P.solved;
        let z = T.var "ccz" 8 in
        let both =
          T.or_
            [ T.and_ [ cksum hdr; cksum ~k:0xfffe (hdr @ [ word "cc" 10 ]) ];
              T.ult z (T.bv_int ~width:8 3) ]
          :: T.ult (T.bv_int ~width:8 1) z
          :: (others_fixed "cc" 11 ~free:5)
        in
        check_int "two atoms on one And path are not solved" 0
          (P.run both).P.solved;
        List.iter
          (fun q -> check_bool "agrees with preprocessing off" true (agrees_off q))
          [ twice; negated; both ]);
    Alcotest.test_case "IHL 5..15 disjunction completes" `Quick (fun () ->
        (* The per-IHL variants of a merged summary: one checksum per
           header length, each under its own length test. *)
        let ihl = T.extract ~hi:3 ~lo:0 (byte "cd" 0) in
        let variants =
          T.or_
            (List.init 11 (fun i ->
                 let n = i + 5 in
                 T.and_ [ T.eq ihl (T.bv_int ~width:4 n); cksum (header "cd" (2 * n)) ]))
        in
        let r = P.run [ variants ] in
        check_int "one word solved" 1 r.P.solved;
        (match relax_steps r with
        | [ P.T_relax rx ] -> check_int "every variant relaxed" 11 (List.length rx.P.atoms)
        | _ -> Alcotest.fail "expected one relax step");
        List.iter
          (fun n ->
            let q = [ variants; T.eq ihl (T.bv_int ~width:4 n) ] in
            check_bool (Printf.sprintf "IHL %d" n) true (agrees_off q))
          [ 5; 6; 10; 15 ]);
    Alcotest.test_case "sums that fold to 0x0000 or 0xffff" `Quick (fun () ->
        let w = word "ce" 0 in
        let cases =
          [ (* the rest is 0: the word must be 0xffff, not 0 *)
            [ cksum [ c16 0; w ] ];
            (* the rest is 0xffff already *)
            [ cksum [ c16 0xffff; w ] ];
            [ cksum [ c16 0xffff; c16 0xffff; w ] ];
            (* k = 1 over a rest of 1 *)
            [ cksum ~k:1 [ c16 1; w ] ];
            (* the rest pinned through definitions *)
            [ cksum [ word "ce" 1; w ]; T.eq (word "ce" 1) (c16 0xffff) ];
            [ cksum [ word "ce" 1; w ]; T.eq (word "ce" 1) (c16 0) ] ]
        in
        List.iter
          (fun q ->
            check_int "solved" 1 (P.run q).P.solved;
            check_bool "agrees with preprocessing off" true (agrees_off q))
          cases);
  ]

(* Random checksum-shaped conjunctions over a small byte pool, so words
   repeat, bytes are shared, and atoms land under [not], [Or] and [And]
   and beside conjuncts on their bytes. *)
let gen_checksum : T.t list QCheck.Gen.t =
  let open QCheck.Gen in
  let b i = byte "cq" i in
  let wordg =
    frequency
      [ (4, map2 (fun i j -> T.concat (b i) (b j)) (int_bound 5) (int_bound 5));
        (1, map c16 (oneof [ return 0; return 0xffff; int_bound 0xffff ])) ]
  in
  let atom =
    map2
      (fun k ws -> cksum ~k ws)
      (oneof [ return 0xffff; return 0xffff; int_range 1 0xfffe ])
      (list_size (int_range 1 4) wordg)
  in
  let side =
    map2 (fun i n -> T.ult (b i) (T.bv_int ~width:8 n)) (int_bound 5) (int_bound 255)
  in
  let conj =
    frequency
      [ (4, atom); (1, map T.not_ atom);
        (1, map2 (fun a s -> T.or_ [ a; s ]) atom side);
        (1, map2 (fun a a' -> T.or_ [ a; a' ]) atom atom);
        (1, map2 (fun a a' -> T.or_ [ T.and_ [ a; a' ]; T.fls ]) atom atom) ]
  in
  let* n = int_range 1 2 in
  let* cs = list_repeat n conj in
  let* sides = list_size (int_bound 2) side in
  return (cs @ sides)

let checksum_differential =
  QCheck.Test.make ~count:300
    ~name:"checksum elimination: answers, models and reference agree"
    (QCheck.make
       ~print:(fun ts -> String.concat " /\\ " (List.map T.to_string ts))
       gen_checksum)
    (fun terms ->
      agrees_with_reference terms
      &&
      match
        ( Solver.check ~max_conflicts:20_000 terms,
          Solver.check ~max_conflicts:20_000 ~preprocess:false terms )
      with
      | Solver.Sat m, Solver.Sat _ -> List.for_all (Eval.eval_bool m) terms
      | Solver.Unsat, Solver.Unsat -> true
      | Solver.Unknown, _ | _, Solver.Unknown -> QCheck.assume_fail ()
      | _ -> false)

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
  @ checksum_tests
  @ List.map QCheck_alcotest.to_alcotest [ checksum_differential ]
  @ [
      e2e_example "router.click";
      e2e_example "firewall.click";
      e2e_bound;
    ]
