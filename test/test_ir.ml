(* IR construction, validation and concrete interpretation. *)

module B = Vdp_bitvec.Bitvec
module Ir = Vdp_ir.Types
module Bld = Vdp_ir.Builder
module Interp = Vdp_ir.Interp
module Stores = Vdp_ir.Stores
module Validate = Vdp_ir.Validate
module P = Vdp_packet.Packet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let c8 n = Ir.Const (B.of_int ~width:8 n)
let c16 n = Ir.Const (B.of_int ~width:16 n)

let run ?budget prog ?(pkt = P.create "0123456789") () =
  let stores = Stores.init prog.Ir.stores in
  (Interp.run ?budget prog stores pkt, pkt)

(* The paper's Fig. 1 toy program over the first packet byte:
     assert in >= 0 (signed); out = max(in, 10); emit. *)
let fig1_program () =
  let b = Bld.create ~name:"fig1" in
  let x = Bld.load b ~off:(c16 0) ~n:1 in
  let nonneg = Bld.cmp b Ir.Sle (c8 0) (Ir.Reg x) in
  Bld.instr b (Ir.Assert (Ir.Reg nonneg, "in >= 0"));
  let small = Bld.cmp b Ir.Ult (Ir.Reg x) (c8 10) in
  let then_b = Bld.new_block b and else_b = Bld.new_block b in
  Bld.term b (Ir.Branch (Ir.Reg small, then_b, else_b));
  Bld.select b then_b;
  Bld.store b ~off:(c16 0) ~n:1 (c8 10);
  Bld.term b (Ir.Emit 0);
  Bld.select b else_b;
  Bld.term b (Ir.Emit 0);
  Bld.finish b

let byte_pkt n = P.create (String.make 1 (Char.chr n))

let unit_tests =
  [
    Alcotest.test_case "fig1 paths" `Quick (fun () ->
        let prog = fig1_program () in
        (* small input -> clamped to 10 *)
        let pkt = byte_pkt 3 in
        let r, _ = run prog ~pkt () in
        check_bool "emitted" true (r.Interp.outcome = Ir.Emitted 0);
        check_int "clamped" 10 (P.get_u8 pkt 0);
        (* large input -> unchanged *)
        let pkt = byte_pkt 42 in
        let r, _ = run prog ~pkt () in
        check_bool "emitted" true (r.Interp.outcome = Ir.Emitted 0);
        check_int "unchanged" 42 (P.get_u8 pkt 0);
        (* negative (signed) input -> assertion crash *)
        let pkt = byte_pkt 0x80 in
        let r, _ = run prog ~pkt () in
        check_bool "crashed" true
          (match r.Interp.outcome with
          | Ir.Crashed (Ir.Assert_failed _) -> true
          | _ -> false));
    Alcotest.test_case "load out of bounds crashes" `Quick (fun () ->
        let b = Bld.create ~name:"oob" in
        let _ = Bld.load b ~off:(c16 100) ~n:2 in
        Bld.term b (Ir.Emit 0);
        let prog = Bld.finish b in
        let r, _ = run prog () in
        check_bool "oob" true
          (match r.Interp.outcome with
          | Ir.Crashed (Ir.Out_of_bounds _) -> true
          | _ -> false));
    Alcotest.test_case "division by zero crashes" `Quick (fun () ->
        let b = Bld.create ~name:"div0" in
        let x = Bld.load b ~off:(c16 0) ~n:1 in
        let _ = Bld.assign b ~width:8 (Ir.Binop (Ir.Udiv, c8 10, Ir.Reg x)) in
        Bld.term b (Ir.Emit 0);
        let prog = Bld.finish b in
        let r, _ = run prog ~pkt:(byte_pkt 0) () in
        check_bool "div0" true (r.Interp.outcome = Ir.Crashed Ir.Div_by_zero);
        let r, _ = run prog ~pkt:(byte_pkt 2) () in
        check_bool "ok" true (r.Interp.outcome = Ir.Emitted 0));
    Alcotest.test_case "budget exhaustion on infinite loop" `Quick (fun () ->
        let b = Bld.create ~name:"spin" in
        Bld.term b (Ir.Goto 0);
        let prog = Bld.finish b in
        let r, _ = run ~budget:1000 prog () in
        check_bool "budget" true
          (r.Interp.outcome = Ir.Crashed Ir.Budget_exhausted));
    Alcotest.test_case "instruction counting" `Quick (fun () ->
        (* 3 straight-line instructions + 1 terminator. *)
        let b = Bld.create ~name:"count" in
        let r0 = Bld.assign b ~width:8 (Ir.Move (c8 1)) in
        let r1 = Bld.assign b ~width:8 (Ir.Binop (Ir.Add, Ir.Reg r0, c8 2)) in
        let _ = Bld.assign b ~width:8 (Ir.Binop (Ir.Add, Ir.Reg r1, c8 3)) in
        Bld.term b (Ir.Emit 0);
        let prog = Bld.finish b in
        let r, _ = run prog () in
        check_int "count" 4 r.Interp.instr_count);
    Alcotest.test_case "kv store read/write with default" `Quick (fun () ->
        let b = Bld.create ~name:"kv" in
        Bld.declare_store b
          (Ir.store ~name:"s" ~key_width:8 ~val_width:16 ~kind:Ir.Private
             ~default:(B.of_int ~width:16 7) ());
        let v = Bld.kv_read b ~store:"s" ~key:(c8 1) ~val_width:16 in
        let v' = Bld.assign b ~width:16 (Ir.Binop (Ir.Add, Ir.Reg v, c16 1)) in
        Bld.instr b (Ir.Kv_write ("s", c8 1, Ir.Reg v'));
        Bld.term b (Ir.Emit 0);
        let prog = Bld.finish b in
        let stores = Stores.init prog.Ir.stores in
        let _ = Interp.run prog stores (P.create "x") in
        check_bool "default+1" true
          (B.equal
             (Stores.read stores "s" (B.of_int ~width:8 1))
             (B.of_int ~width:16 8));
        let _ = Interp.run prog stores (P.create "x") in
        check_bool "default+2" true
          (B.equal
             (Stores.read stores "s" (B.of_int ~width:8 1))
             (B.of_int ~width:16 9)));
    Alcotest.test_case "static store rejects writes" `Quick (fun () ->
        let decl =
          Ir.store ~name:"ro" ~key_width:8 ~val_width:8 ~kind:Ir.Static
            ~default:(B.zero 8) ()
        in
        let stores = Stores.init [ decl ] in
        check_bool "raises" true
          (try
             Stores.write stores "ro" (B.zero 8) (B.zero 8);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "validator catches width mismatch" `Quick (fun () ->
        let b = Bld.create ~name:"bad" in
        let r8 = Bld.reg b ~width:8 in
        (* Manually build an ill-typed instruction. *)
        Bld.instr b (Ir.Assign (r8, Ir.Move (c16 0)));
        Bld.term b (Ir.Emit 0);
        check_bool "raises" true
          (try
             ignore (Validate.check_program (Bld.finish b));
             false
           with Validate.Invalid _ -> true));
    Alcotest.test_case "validator catches dangling label" `Quick (fun () ->
        let b = Bld.create ~name:"bad2" in
        Bld.term b (Ir.Goto 99);
        check_bool "raises" true
          (try
             ignore (Validate.check_program (Bld.finish b));
             false
           with Validate.Invalid _ -> true));
    Alcotest.test_case "builder rejects unterminated blocks" `Quick (fun () ->
        let b = Bld.create ~name:"unterm" in
        let _ = Bld.new_block b in
        Bld.term b (Ir.Emit 0);
        check_bool "raises" true
          (try ignore (Bld.finish b); false with Invalid_argument _ -> true));
    Alcotest.test_case "pull/push interplay" `Quick (fun () ->
        let b = Bld.create ~name:"pp" in
        Bld.instr b (Ir.Pull 4);
        Bld.instr b (Ir.Push 2);
        Bld.term b (Ir.Emit 0);
        let prog = Bld.finish b in
        let pkt = P.create "abcdefgh" in
        let r, _ = run prog ~pkt () in
        check_bool "ok" true (r.Interp.outcome = Ir.Emitted 0);
        check_int "len" 6 (P.length pkt);
        (* Pushed bytes are zeroed; remaining payload preserved. *)
        check_int "zero" 0 (P.get_u8 pkt 0);
        check_int "e" (Char.code 'e') (P.get_u8 pkt 2));
    Alcotest.test_case "select rhs" `Quick (fun () ->
        let b = Bld.create ~name:"sel" in
        let x = Bld.load b ~off:(c16 0) ~n:1 in
        let c = Bld.cmp b Ir.Ult (Ir.Reg x) (c8 5) in
        let v =
          Bld.select_val b ~width:8 (Ir.Reg c) (c8 100) (c8 200)
        in
        Bld.store b ~off:(c16 0) ~n:1 (Ir.Reg v);
        Bld.term b (Ir.Emit 0);
        let prog = Bld.finish b in
        let pkt = byte_pkt 3 in
        let _ = run prog ~pkt () in
        check_int "then" 100 (P.get_u8 pkt 0);
        let pkt = byte_pkt 50 in
        let _ = run prog ~pkt () in
        check_int "else" 200 (P.get_u8 pkt 0));
  ]

(* Property: the interpreter's arithmetic agrees with Bitvec. *)
let interp_matches_bitvec =
  QCheck.Test.make ~count:300 ~name:"interp binop agrees with bitvec"
    QCheck.(triple (int_bound 255) (int_bound 255) (int_bound 11))
    (fun (x, y, opi) ->
      let ops =
        [| Ir.Add; Ir.Sub; Ir.Mul; Ir.And; Ir.Or; Ir.Xor; Ir.Shl; Ir.Lshr;
           Ir.Ashr; Ir.Udiv; Ir.Urem; Ir.Sdiv |]
      in
      let op = ops.(opi) in
      let divlike = List.mem op [ Ir.Udiv; Ir.Urem; Ir.Sdiv ] in
      QCheck.assume (not (divlike && y = 0));
      let b = Bld.create ~name:"prop" in
      let r = Bld.assign b ~width:8 (Ir.Binop (op, c8 x, c8 y)) in
      Bld.store b ~off:(c16 0) ~n:1 (Ir.Reg r);
      Bld.term b (Ir.Emit 0);
      let prog = Bld.finish b in
      let pkt = P.create "z" in
      let stores = Stores.init [] in
      let _ = Interp.run prog stores pkt in
      let bx = B.of_int ~width:8 x and by = B.of_int ~width:8 y in
      let expect =
        match op with
        | Ir.Add -> B.add bx by
        | Ir.Sub -> B.sub bx by
        | Ir.Mul -> B.mul bx by
        | Ir.And -> B.logand bx by
        | Ir.Or -> B.logor bx by
        | Ir.Xor -> B.logxor bx by
        | Ir.Shl -> B.shl_bv bx by
        | Ir.Lshr -> B.lshr_bv bx by
        | Ir.Ashr -> B.ashr_bv bx by
        | Ir.Udiv -> B.udiv bx by
        | Ir.Urem -> B.urem bx by
        | Ir.Sdiv -> B.sdiv bx by
        | _ -> assert false
      in
      P.get_u8 pkt 0 = B.to_int_trunc expect)

(* Property: a private store is a map from keys to values, with the
   declared default for missing keys and the declared contents after
   [reset], whatever its key and value widths (one native word or
   several). *)
let stores_are_maps =
  QCheck.Test.make ~count:200 ~name:"private stores are maps at every width"
    QCheck.(triple (int_range 1 130) (int_range 1 130) (int_bound 10_000))
    (fun (kw, vw, seed) ->
      let st = Random.State.make [| seed |] in
      let rand w =
        (* Few distinct keys, so writes overwrite and reads hit. *)
        B.extract ~hi:(w - 1) ~lo:0
          (B.of_bytes_be
             (String.init ((w + 7) / 8) (fun _ ->
                  Char.chr (Random.State.int st 3))))
      in
      let init = [ (rand kw, rand vw) ] and default = rand vw in
      let decl =
        Ir.store ~name:"s" ~key_width:kw ~val_width:vw ~kind:Ir.Private
          ~default ~init ()
      in
      let stores = Stores.init [ decl ] in
      let model = Hashtbl.create 16 in
      let reset () =
        Hashtbl.reset model;
        List.iter (fun (k, v) -> Hashtbl.replace model (B.to_string_hex k) v) init
      in
      reset ();
      let ok = ref true in
      for _ = 1 to 60 do
        let k = rand kw in
        match Random.State.int st 10 with
        | 0 ->
          Stores.reset stores;
          reset ()
        | 1 | 2 | 3 | 4 ->
          let v = rand vw in
          Stores.write stores "s" k v;
          Hashtbl.replace model (B.to_string_hex k) v
        | _ ->
          let expect =
            Option.value (Hashtbl.find_opt model (B.to_string_hex k)) ~default
          in
          ok := !ok && B.equal expect (Stores.read stores "s" k)
      done;
      let entries =
        List.map
          (fun (k, v) -> (B.to_string_hex k, B.to_string_hex v))
          (Stores.entries stores "s")
      in
      !ok
      && List.sort compare entries
         = List.sort compare
             (Hashtbl.fold
                (fun k v acc -> (k, B.to_string_hex v) :: acc)
                model []))

let tests =
  unit_tests
  @ List.map QCheck_alcotest.to_alcotest
      [ interp_matches_bitvec; stores_are_maps ]
