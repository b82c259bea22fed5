(* The interval analysis: ranges must over-approximate, refutations
   must be sound (never refute a satisfiable constraint). *)

module B = Vdp_bitvec.Bitvec
module T = Vdp_smt.Term
module I = Vdp_smt.Interval
module Model = Vdp_smt.Model
module Eval = Vdp_smt.Eval

let check_bool = Alcotest.(check bool)

let x = T.var "x" 8
let c n = T.bv_int ~width:8 n

let unit_tests =
  [
    Alcotest.test_case "range of constants" `Quick (fun () ->
        check_bool "const" true (I.range (c 42) = Some (42, 42)));
    Alcotest.test_case "range through masks and shifts" `Quick (fun () ->
        (* (zext16 (x & 0x0f)) << 2 : the header-length pattern. *)
        let hlen = T.shl (T.zext 16 (T.band x (c 0x0f))) (T.bv_int ~width:16 2) in
        match I.range hlen with
        | Some (lo, hi) -> check_bool "0..60" true (lo = 0 && hi = 60)
        | None -> Alcotest.fail "expected a range");
    Alcotest.test_case "refutes contradictory bounds" `Quick (fun () ->
        check_bool "x<5 && x>10" true
          (I.refute (T.and_ [ T.ult x (c 5); T.ult (c 10) x ]));
        check_bool "x<10 && x>5 sat" false
          (I.refute (T.and_ [ T.ult x (c 10); T.ult (c 5) x ])));
    Alcotest.test_case "refutes eq against range" `Quick (fun () ->
        let masked = T.band x (c 0x0f) in
        check_bool "masked = 200 impossible" true
          (I.refute (T.eq masked (c 200))));
    Alcotest.test_case "negated atoms" `Quick (fun () ->
        (* not (x < 5) && x < 3  is unsat *)
        check_bool "refuted" true
          (I.refute (T.and_ [ T.not_ (T.ult x (c 5)); T.ult x (c 3) ])));
    Alcotest.test_case "negated equality against a point range" `Quick
      (fun () ->
        (* x = 7 && x <> 7 *)
        check_bool "point diseq" true
          (I.refute (T.and_ [ T.eq x (c 7); T.not_ (T.eq x (c 7)) ]));
        (* x <> 7 alone is satisfiable *)
        check_bool "diseq alone sat" false
          (I.refute (T.not_ (T.eq x (c 7))));
        (* x & 0 = 0, so (x & 0) <> 0 is unsat — point via range, not
           via a syntactic constant. *)
        check_bool "range point diseq" true
          (I.refute (T.not_ (T.eq (T.band x (c 0)) (c 0)))));
    Alcotest.test_case "diseqs shave interval endpoints" `Quick (fun () ->
        (* x <= 1 && x <> 0 && x <> 1 *)
        check_bool "endpoints shaved to empty" true
          (I.refute
             (T.and_
                [
                  T.ule x (c 1);
                  T.not_ (T.eq x (c 0));
                  T.not_ (T.eq x (c 1));
                ]));
        (* x <= 2 && x <> 0 && x <> 2 still admits x = 1 *)
        check_bool "hole in the middle not refutable" false
          (I.refute
             (T.and_
                [
                  T.ule x (c 2);
                  T.not_ (T.eq x (c 0));
                  T.not_ (T.eq x (c 2));
                ])));
    Alcotest.test_case "recurses into nested conjunctions" `Quick (fun () ->
        let inner = T.and_ [ T.ult x (c 5); T.bool_var "b" ] in
        check_bool "nested" true
          (I.refute (T.and_ [ inner; T.ult (c 10) x ])));
  ]

(* Soundness: anything interval-refuted is really unsat (checked by
   brute force over one 8-bit variable). *)
let soundness =
  let gen =
    QCheck.Gen.(
      let atom =
        let* op = int_bound 2 in
        let* k = int_bound 255 in
        let* flip = bool in
        let base = T.var "x" 8 in
        let t =
          match op with
          | 0 -> T.ult base (T.bv_int ~width:8 k)
          | 1 -> T.ule (T.bv_int ~width:8 k) base
          | _ -> T.eq base (T.bv_int ~width:8 k)
        in
        return (if flip then T.not_ t else t)
      in
      let* n = int_range 1 4 in
      let* atoms = list_repeat n atom in
      return (T.and_ atoms))
  in
  QCheck.Test.make ~count:500 ~name:"interval refutation is sound"
    (QCheck.make ~print:T.to_string gen)
    (fun t ->
      if I.refute t then begin
        (* Must be unsat: no byte value satisfies it. *)
        let sat = ref false in
        for v = 0 to 255 do
          let m = Model.of_list [ ("x", B.of_int ~width:8 v) ] in
          if Eval.eval_bool m t then sat := true
        done;
        not !sat
      end
      else true)

(* Brute-force differential vs Eval at widths up to 12: every refuted
   constraint must have no satisfying assignment at all. Atoms include
   negated equalities and the conjunction is randomly nested. *)
let soundness_wide =
  let gen =
    QCheck.Gen.(
      let* w = int_range 4 12 in
      let base = T.var "x" w in
      let atom =
        let* op = int_bound 3 in
        let* k = int_bound ((1 lsl w) - 1) in
        let* flip = bool in
        let kt = T.bv_int ~width:w k in
        let t =
          match op with
          | 0 -> T.ult base kt
          | 1 -> T.ule kt base
          | 2 -> T.eq base kt
          | _ -> T.eq (T.band base kt) kt
        in
        return (if flip then T.not_ t else t)
      in
      let* n = int_range 1 6 in
      let* atoms = list_repeat n atom in
      let* split = int_bound n in
      (* Random nesting: an inner conjunction inside the outer one. *)
      let outer, inner = List.filteri (fun i _ -> i < split) atoms,
                         List.filteri (fun i _ -> i >= split) atoms in
      let parts = if inner = [] then outer else T.and_ inner :: outer in
      return (w, T.and_ parts))
  in
  QCheck.Test.make ~count:300
    ~name:"interval refutation sound vs brute-force Eval (w <= 12)"
    (QCheck.make ~print:(fun (w, t) -> Printf.sprintf "w=%d %s" w (T.to_string t)) gen)
    (fun (w, t) ->
      if I.refute t then begin
        let sat = ref false in
        for v = 0 to (1 lsl w) - 1 do
          let m = Model.of_list [ ("x", B.of_int ~width:w v) ] in
          if Eval.eval_bool m t then sat := true
        done;
        not !sat
      end
      else true)

(* [explain_list] decides on a conjunct list what [explain] decides on
   the built conjunction: over atom lists with bounds, disequalities,
   masks, nested conjunctions, duplicates, [tru] and [x]/[not x] pairs,
   it answers exactly when [refute (and_ ts)] does, unless the list
   folds; and every explanation it gives replays against the list. *)
(* One atom over two [w]-bit subjects [x] and [y]: a bound, an
   equality or disequality, a mask test, a boolean variable or [tru]. *)
let list_atom w =
  QCheck.Gen.(
    let x = T.var "x" w and y = T.var "y" w in
    let* op = int_bound 5 in
    (* Small and extreme constants, so that disequalities shave the
       ends of narrow intervals. *)
    let* k =
      oneof
        [
          int_bound 3;
          map (fun d -> (1 lsl w) - 1 - d) (int_bound 2);
          int_bound ((1 lsl w) - 1);
        ]
    in
    let* flip = bool in
    let* on_y = bool in
    let v = if on_y then y else x in
    let kt = T.bv_int ~width:w k in
    let t =
      match op with
      | 0 -> T.ult v kt
      | 1 -> T.ule kt v
      | 2 -> T.eq v kt
      | 3 -> T.eq (T.band v kt) kt
      | 4 -> T.bool_var "b"
      | _ -> T.tru
    in
    return (if flip then T.not_ t else t))

let explain_list_differential =
  let gen =
    QCheck.Gen.(
      let* w = int_range 4 10 in
      let atom = list_atom w in
      let* atoms = list_size (int_range 1 7) atom in
      let* nest = int_bound (List.length atoms) in
      let inner = List.filteri (fun i _ -> i < nest) atoms in
      let outer = List.filteri (fun i _ -> i >= nest) atoms in
      let* dup = bool in
      let ts = (if inner = [] then [] else [ T.and_ inner ]) @ outer in
      return (w, if dup then ts @ atoms else ts))
  in
  QCheck.Test.make ~count:1000
    ~name:"explain_list agrees with refute on the built conjunction"
    (QCheck.make
       ~print:(fun (w, ts) ->
         Printf.sprintf "w=%d %s" w
           (String.concat " ; " (List.map T.to_string ts)))
       gen)
    (fun (_, ts) ->
      let ex = I.explain_list ts in
      I.refute_list ts = I.refute (T.and_ ts)
      && (T.conj_is_false ts || (ex <> None) = I.refute (T.and_ ts))
      &&
      match ex with
      | None -> true
      | Some ex -> Vdp_cert.Interval_check.check ts ex = Ok ())

(* {1 Running environments}

   A fork tree mirrors Step-1 symbex: every node adds one conjunct to
   its parent's path, and a fork's two children add a condition and
   its negation to the same parent. [env_agrees] walks the tree with
   one environment per node, each extended from its parent's, and
   holds it to [refute_list] on that node's whole path. Sibling
   subtrees start from the same parent environment, so a conjunct
   leaking into a sibling would show as a complementary pair that the
   sibling's own path does not have. *)

type fork_tree = Fork of (T.t * fork_tree) list

let rec env_agrees env path (Fork children) =
  List.for_all
    (fun (t, sub) ->
      let env' = I.extend env t and path' = t :: path in
      I.refuted env' = I.refute_list path' && env_agrees env' path' sub)
    children

let fork_tree_gen =
  QCheck.Gen.(
    let* w = int_range 2 6 in
    let atom = list_atom w in
    (* Nested conjunctions too, as composite conditions re-conjoin. *)
    let conjunct =
      frequency [ (4, atom); (1, map T.and_ (list_size (int_range 1 3) atom)) ]
    in
    let rec tree depth =
      if depth = 0 then return (Fork [])
      else
        let* shape = int_bound 2 in
        let* c = conjunct in
        match shape with
        | 0 -> return (Fork [])
        | 1 ->
          let* sub = tree (depth - 1) in
          return (Fork [ (c, sub) ])
        | _ ->
          let* yes = tree (depth - 1) in
          let* no = tree (depth - 1) in
          return (Fork [ (c, yes); (T.not_ c, no) ])
    in
    let* t = tree 7 in
    return (w, t))

let rec print_tree indent (Fork children) =
  String.concat ""
    (List.map
       (fun (t, sub) ->
         Printf.sprintf "%s%s\n%s" indent (T.to_string t)
           (print_tree (indent ^ "  ") sub))
       children)

let env_differential =
  QCheck.Test.make ~count:500
    ~name:"running environment agrees with refute_list on fork trees"
    (QCheck.make
       ~print:(fun (w, t) -> Printf.sprintf "w=%d\n%s" w (print_tree "" t))
       fork_tree_gen)
    (fun (_, t) -> env_agrees I.empty_env [] t)

let env_cases =
  Alcotest.test_case "running environment: shave chains and complementary pairs"
    `Quick (fun () ->
      let path ts =
        List.fold_left
          (fun (env, p) t -> (I.extend env t, t :: p))
          (I.empty_env, []) ts
      in
      let refutes ts =
        let env, p = path ts in
        check_bool "environment = refute_list" (I.refute_list p) (I.refuted env);
        I.refuted env
      in
      let ne k = T.not_ (T.eq x (c k)) in
      (* x <= 3, then x <> 3, 0, 2, 1: shaved from both ends to empty
         only by the last. *)
      check_bool "shave chain open" false
        (refutes [ T.ule x (c 3); ne 3; ne 0; ne 2 ]);
      check_bool "shave chain closed" true
        (refutes [ T.ule x (c 3); ne 3; ne 0; ne 2; ne 1 ]);
      (* The excluded points come before the bound that arms them. *)
      check_bool "holes before the bound" true
        (refutes [ ne 1; ne 0; ne 2; T.ule x (c 2) ]);
      (* A complementary pair, also through a nested conjunction. *)
      let b = T.bool_var "b" in
      check_bool "b and not b" true (refutes [ b; T.ult x (c 9); T.not_ b ]);
      check_bool "nested pair" true
        (refutes [ T.and_ [ T.ult x (c 9); T.not_ b ]; b ]);
      (* Sibling extensions share their parent and see only it. *)
      let parent, _ = path [ T.ule x (c 1); b ] in
      let yes = I.extend parent (ne 0) and no = I.extend parent (T.not_ (ne 0)) in
      check_bool "yes side open" false (I.refuted yes);
      check_bool "no side open" false (I.refuted no);
      check_bool "yes side closes alone" true (I.refuted (I.extend yes (ne 1)));
      check_bool "no side stays open" false (I.refuted (I.extend no (ne 1)));
      check_bool "parent unchanged" false
        (I.refuted (I.extend parent (ne 1))))

(* {1 Value sets}

   [values env t ~cap] must contain every value [t] takes under an
   assignment that satisfies the conjuncts [env] was built from. Offset
   terms are built the way parsers build them — zero-extended bytes,
   masks, shifts by constants (some past the width) and sums — over
   one or two byte variables, and random bounds and disequalities are
   assumed on their subterms; brute force over the bytes decides. *)

let value_cases =
  Alcotest.test_case "value sets: header length and a load behind it" `Quick
    (fun () ->
      let w16 = T.bv_int ~width:16 in
      let hlen = T.shl (T.zext 16 (T.band x (c 0x0f))) (w16 2) in
      let ints = Alcotest.(check (option (list int))) in
      ints "multiples of 4" (Some (List.init 16 (fun i -> 4 * i)))
        (I.values I.empty_env hlen ~cap:64);
      (* The environment's [hlen >= 20] and [hlen <> 20] cut the set. *)
      let env =
        List.fold_left I.extend I.empty_env
          [ T.ule (w16 20) hlen; T.not_ (T.eq hlen (w16 20)) ]
      in
      ints "at least 24" (Some (List.init 10 (fun i -> 24 + (4 * i))))
        (I.values env hlen ~cap:64);
      (* A path that fixed [hlen] offers one offset behind it. *)
      let env = I.extend I.empty_env (T.eq hlen (w16 20)) in
      ints "hlen + 2" (Some [ 22 ]) (I.values env (T.add hlen (w16 2)) ~cap:64);
      ints "shift past the width" (Some [ 0 ])
        (I.values I.empty_env (T.shl (T.zext 16 x) (w16 16)) ~cap:64);
      ints "over the cap" None (I.values I.empty_env hlen ~cap:15);
      ints "a bare byte" None (I.values I.empty_env (T.zext 16 x) ~cap:64))

let values_differential =
  let gen =
    QCheck.Gen.(
      let w16 = T.bv_int ~width:16 in
      let byte = oneofl [ T.var "x" 8; T.var "y" 8 ] in
      let leaf =
        frequency
          [
            (3, map (T.zext 16) byte);
            ( 3,
              let* b = byte and* k = oneof [ int_bound 63; int_bound 255 ] in
              return (T.zext 16 (T.band b (c k))) );
            (1, map w16 (oneof [ int_bound 80; int_range 0xffc0 0xffff ]));
          ]
      in
      let rec offset depth =
        if depth = 0 then leaf
        else
          frequency
            [
              (2, leaf);
              ( 2,
                let* a = offset (depth - 1) and* k = int_bound 17 in
                return (T.shl a (w16 k)) );
              ( 3,
                let* a = offset (depth - 1) and* b = offset (depth - 1) in
                return (T.add a b) );
              ( 1,
                let* a = offset (depth - 1) and* k = int_bound 0xffff in
                return (T.band a (w16 k)) );
            ]
      in
      let* t = offset 3 in
      let subjects =
        T.fold_subterms
          (fun acc s -> if T.const_value s <> None then acc else s :: acc)
          [] t
      in
      let atom =
        let* s = oneofl subjects in
        let w = T.width s in
        let* k = int_bound (min 100 ((1 lsl w) - 1)) and* op = int_bound 8 in
        let kt = T.bv_int ~width:w k in
        return
          (match op with
          | 0 | 1 | 2 | 3 -> T.ult s kt
          | 4 | 5 -> T.ule kt s
          | 6 -> T.eq s kt
          | _ -> T.not_ (T.eq s kt))
      in
      let* atoms =
        if subjects = [] then return [] else list_size (int_bound 3) atom
      in
      let* cap = oneof [ return 64; int_range 1 64 ] in
      return (t, atoms, cap))
  in
  QCheck.Test.make ~count:500
    ~name:"value sets contain every value the environment allows"
    (QCheck.make
       ~print:(fun (t, atoms, cap) ->
         Printf.sprintf "cap=%d %s under %s" cap (T.to_string t)
           (String.concat " ; " (List.map T.to_string atoms)))
       gen)
    (fun (t, atoms, cap) ->
      let env = List.fold_left I.extend I.empty_env atoms in
      match I.values env t ~cap with
      | None -> true
      | Some vs ->
        let occurs name =
          List.exists (fun t -> List.mem_assoc name (T.free_vars t)) (t :: atoms)
        in
        let top name = if occurs name then 255 else 0 in
        let missed = ref false in
        for a = 0 to top "x" do
          for b = 0 to top "y" do
            let m =
              Model.of_list
                [ ("x", B.of_int ~width:8 a); ("y", B.of_int ~width:8 b) ]
            in
            if
              List.for_all (Eval.eval_bool m) atoms
              && not (List.mem (B.to_int_trunc (Eval.eval_bv m t)) vs)
            then missed := true
          done
        done;
        List.length vs <= cap && List.sort_uniq compare vs = vs && not !missed)

let tests =
  unit_tests
  @ List.map QCheck_alcotest.to_alcotest
      [ soundness; soundness_wide; explain_list_differential; env_differential ]
  @ [ env_cases ]
  @ [ value_cases; QCheck_alcotest.to_alcotest values_differential ]
