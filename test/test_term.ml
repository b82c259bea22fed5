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

(* The Set-based [and_]/[or_] this module had before flattening went
   through a sorted id-set walk: the node they build is kept as its
   sorted operand list, since only [Term] can build the node itself. *)
type ref_result = Whole of T.t | Node of T.t list

let ref_assoc ~conj ts =
  let neutral, absorbing = if conj then (T.tru, T.fls) else (T.fls, T.tru) in
  let module S = Set.Make (T) in
  let exception Absorbed in
  let rec collect acc (t : T.t) =
    if T.equal t neutral then acc
    else if T.equal t absorbing then raise Absorbed
    else
      match t.T.node with
      | T.And inner when conj -> Array.fold_left collect acc inner
      | T.Or inner when not conj -> Array.fold_left collect acc inner
      | _ -> S.add t acc
  in
  match List.fold_left collect S.empty ts with
  | exception Absorbed -> Whole absorbing
  | set ->
    if S.exists (fun t -> S.mem (T.not_ t) set) set then Whole absorbing
    else (
      match S.elements set with
      | [] -> Whole neutral
      | [ t ] -> Whole t
      | elts -> Node elts)

let same_as_ref ~conj ts (t : T.t) =
  match (ref_assoc ~conj ts, t.T.node) with
  | Whole r, _ -> T.equal r t
  | Node elts, (T.And ops | T.Or ops) ->
    (match t.T.node with T.And _ -> conj | _ -> not conj)
    && List.length elts = Array.length ops
    && List.for_all2 T.equal elts (Array.to_list ops)
  | Node _, _ -> false

(* Random boolean operand lists: atoms over two bit vectors and three
   boolean variables, their negations, nested conjunctions and
   disjunctions, [tru] and [fls], with duplicates and [x]/[not x]
   pairs drawn on purpose. *)
let gen_bool_list =
  QCheck.Gen.(
    let atom =
      let* k = int_bound 6 in
      let* n = int_bound 3 in
      let c = T.bv_int ~width:8 n in
      return
        (match k with
        | 0 -> T.bool_var "p"
        | 1 -> T.bool_var "q"
        | 2 -> T.bool_var "r"
        | 3 -> T.ult x c
        | 4 -> T.eq y c
        | 5 -> T.ule y x
        | _ -> T.eq x y)
    in
    let lit =
      let* a = atom in
      let* neg = bool in
      return (if neg then T.not_ a else a)
    in
    let leaf = frequency [ (8, lit); (1, return T.tru); (1, return T.fls) ] in
    let operand =
      frequency
        [
          (6, leaf);
          (2, map T.and_ (list_size (int_range 0 4) leaf));
          (2, map T.or_ (list_size (int_range 0 4) leaf));
        ]
    in
    let* base = list_size (int_range 0 7) operand in
    let* extra = int_bound 3 in
    (* Re-draw existing operands, some negated: duplicates and pairs. *)
    let* picks =
      list_repeat extra
        (let* i = int_bound 100 in
         let* neg = bool in
         return (i, neg))
    in
    let n = List.length base in
    let again =
      if n = 0 then []
      else
        List.map
          (fun (i, neg) ->
            let t = List.nth base (i mod n) in
            if neg then T.not_ t else t)
          picks
    in
    shuffle_l (base @ again))

let print_list ts = String.concat " ; " (List.map T.to_string ts)

let flatten_differential =
  QCheck.Test.make ~count:2000
    ~name:"and_/or_/conj_is_false agree with the Set-based reference"
    (QCheck.make ~print:print_list gen_bool_list)
    (fun ts ->
      let a = T.and_ ts in
      T.conj_is_false ts = T.is_false a
      && same_as_ref ~conj:true ts a
      && same_as_ref ~conj:false ts (T.or_ ts))

(* Conjunctions wider than the flatten step's initial id set, which
   must grow mid-walk and still find a pair and drop duplicates. *)
let wide_conjunction =
  Alcotest.test_case "wide conjunctions fold and dedup" `Quick (fun () ->
      let atoms =
        List.init 600 (fun i ->
            T.eq (T.var (Printf.sprintf "w%d" i) 16) (T.bv_int ~width:16 i))
      in
      check_bool "distinct atoms do not fold" false (T.conj_is_false atoms);
      check_int "600 operands" 600
        (match (T.and_ (atoms @ atoms)).T.node with
        | T.And ops -> Array.length ops
        | _ -> 0);
      let last_negated = T.not_ (List.hd atoms) :: List.rev atoms in
      check_bool "a pair 600 apart folds" true (T.conj_is_false last_negated);
      teq T.fls (T.and_ last_negated))

let tests =
  tests @ [ wide_conjunction; QCheck_alcotest.to_alcotest flatten_differential ]
