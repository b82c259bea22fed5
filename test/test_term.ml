(* Smart-constructor normalisation, substitution and traversal. *)

module T = Vdp_smt.Term
module B = Vdp_bitvec.Bitvec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let teq a b = check_bool "term equal" true (T.equal a b)

let x = T.var "x" 8
let y = T.var "y" 8
let c n = T.bv_int ~width:8 n

let tests =
  [
    Alcotest.test_case "hash-consing shares" `Quick (fun () ->
        check_bool "same node same term" true
          (T.equal (T.add x y) (T.add x y));
        check_bool "ids equal" true ((T.add x y).T.id = (T.add x y).T.id));
    Alcotest.test_case "constant folding" `Quick (fun () ->
        teq (c 5) (T.add (c 2) (c 3));
        teq (c 6) (T.mul (c 2) (c 3));
        teq T.tru (T.ult (c 2) (c 3));
        teq T.fls (T.ult (c 3) (c 3)));
    Alcotest.test_case "identity rewrites" `Quick (fun () ->
        teq x (T.add x (c 0));
        teq x (T.add (c 0) x);
        teq x (T.mul x (c 1));
        teq (c 0) (T.mul x (c 0));
        teq (c 0) (T.sub x x);
        teq (c 0) (T.bxor x x);
        teq x (T.band x x);
        teq x (T.bor x (c 0));
        teq x (T.shl x (c 0)));
    Alcotest.test_case "boolean normalisation" `Quick (fun () ->
        let p = T.bool_var "p" in
        teq p (T.and_ [ T.tru; p ]);
        teq T.fls (T.and_ [ p; T.fls ]);
        teq T.fls (T.and_ [ p; T.not_ p ]);
        teq T.tru (T.or_ [ p; T.not_ p ]);
        teq p (T.and_ [ p; p ]);
        teq p (T.not_ (T.not_ p)));
    Alcotest.test_case "and flattens" `Quick (fun () ->
        let p = T.bool_var "p" and q = T.bool_var "q" and r = T.bool_var "r" in
        teq (T.and_ [ p; q; r ]) (T.and_ [ T.and_ [ p; q ]; r ]));
    Alcotest.test_case "eq is commutative (normalised)" `Quick (fun () ->
        teq (T.eq x y) (T.eq y x);
        teq T.tru (T.eq x x));
    Alcotest.test_case "ite simplification" `Quick (fun () ->
        teq x (T.ite T.tru x y);
        teq y (T.ite T.fls x y);
        teq x (T.ite (T.bool_var "p") x x));
    Alcotest.test_case "extract composition" `Quick (fun () ->
        let v = T.var "v" 32 in
        let inner = T.extract ~hi:23 ~lo:8 v in
        teq (T.extract ~hi:15 ~lo:8 v) (T.extract ~hi:7 ~lo:0 inner));
    Alcotest.test_case "extract over concat" `Quick (fun () ->
        let cc = T.concat x y in
        teq y (T.extract ~hi:7 ~lo:0 cc);
        teq x (T.extract ~hi:15 ~lo:8 cc));
    Alcotest.test_case "extract over zext" `Quick (fun () ->
        let z = T.zext 16 x in
        teq x (T.extract ~hi:7 ~lo:0 z);
        teq (T.bv_int ~width:8 0) (T.extract ~hi:15 ~lo:8 z));
    Alcotest.test_case "zext/sext identity at same width" `Quick (fun () ->
        teq x (T.zext 8 x);
        teq x (T.sext 8 x));
    Alcotest.test_case "free_vars" `Quick (fun () ->
        let t = T.and_ [ T.ult x y; T.eq x (c 3); T.bool_var "p" ] in
        check_int "three vars" 3 (List.length (T.free_vars t)));
    Alcotest.test_case "substitute" `Quick (fun () ->
        let t = T.add x y in
        let t' =
          T.substitute_vars
            (fun n _ -> if n = "x" then Some (c 1) else None)
            t
        in
        teq (T.add (c 1) y) t';
        let t'' =
          T.substitute_vars
            (fun n _ ->
              if n = "x" then Some (c 1)
              else if n = "y" then Some (c 2)
              else None)
            t
        in
        teq (c 3) t'';
        (* The callback sees each variable's sort, and a shared memo
           gives later terms the rewrites of earlier ones. *)
        let memo = Hashtbl.create 8 in
        let sorts = ref [] in
        let to_one n s =
          sorts := (n, s) :: !sorts;
          if n = "x" then Some (c 1) else None
        in
        teq (T.add (c 1) y) (T.substitute_vars ~memo to_one t);
        check_bool "x seen at width 8" true
          (List.mem ("x", Vdp_smt.Sort.Bv 8) !sorts);
        let seen = List.length !sorts in
        teq (T.ult (T.add (c 1) y) y)
          (T.substitute_vars ~memo to_one (T.ult t y));
        check_int "memoised: no variable looked up again" seen
          (List.length !sorts);
        Alcotest.check_raises "sort mismatch"
          (Invalid_argument "Term.substitute_vars: sort mismatch") (fun () ->
            ignore
              (T.substitute_vars
                 (fun n _ -> if n = "x" then Some (T.var "w" 16) else None)
                 t)));
    Alcotest.test_case "rename_vars" `Quick (fun () ->
        let t = T.add x y in
        let t' = T.rename_vars (fun n -> n ^ "!1") t in
        teq (T.add (T.var "x!1" 8) (T.var "y!1" 8)) t');
    Alcotest.test_case "size counts distinct subterms" `Quick (fun () ->
        (* add(x, x) = {x, add} = 2 distinct nodes *)
        check_int "shared" 2 (T.size (T.add x x)));
    Alcotest.test_case "width checks raise" `Quick (fun () ->
        let wide = T.var "w" 16 in
        Alcotest.check_raises "add width mismatch"
          (Invalid_argument "Term.binop: sort mismatch") (fun () ->
            ignore (T.add x wide)));
  ]
