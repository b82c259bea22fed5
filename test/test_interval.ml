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
let explain_list_differential =
  let gen =
    QCheck.Gen.(
      let* w = int_range 4 10 in
      let x = T.var "x" w and y = T.var "y" w in
      let atom =
        let* op = int_bound 5 in
        (* Small and extreme constants, so that disequalities shave
           the ends of narrow intervals. *)
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
        return (if flip then T.not_ t else t)
      in
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

let tests =
  unit_tests
  @ List.map QCheck_alcotest.to_alcotest
      [ soundness; soundness_wide; explain_list_differential ]
