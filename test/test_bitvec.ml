(* Bit-vector semantics checked against OCaml's native integers on
   widths small enough to embed exactly. *)

module B = Vdp_bitvec.Bitvec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Unsigned value of [v] for widths <= 30. *)
let u v = B.to_int_trunc v

(* Signed reference value for width [w]. *)
let s ~w v =
  let n = B.to_int_trunc v in
  if n >= 1 lsl (w - 1) then n - (1 lsl w) else n

let mask w n = n land ((1 lsl w) - 1)

let unit_tests =
  [
    Alcotest.test_case "of_int/to_int roundtrip" `Quick (fun () ->
        check_int "42 @8" 42 (u (B.of_int ~width:8 42));
        check_int "255 @8" 255 (u (B.of_int ~width:8 255));
        check_int "256 trunc @8" 0 (u (B.of_int ~width:8 256));
        check_int "-1 @8" 255 (u (B.of_int ~width:8 (-1)));
        check_int "0 @1" 0 (u (B.of_int ~width:1 0)));
    Alcotest.test_case "wide roundtrip via bytes" `Quick (fun () ->
        let s0 = "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c" in
        check_string "bytes" s0 (B.to_bytes_be (B.of_bytes_be s0)));
    Alcotest.test_case "of_string bases" `Quick (fun () ->
        check_int "dec" 1234 (u (B.of_string ~width:16 "1234"));
        check_int "hex" 0xbeef (u (B.of_string ~width:16 "0xbeef"));
        check_int "bin" 0b1011 (u (B.of_string ~width:8 "0b1011")));
    Alcotest.test_case "to_string" `Quick (fun () ->
        check_string "hex" "0x00ff" (B.to_string_hex (B.of_int ~width:16 255));
        check_string "dec" "255" (B.to_string_dec (B.of_int ~width:16 255));
        check_string "dec0" "0" (B.to_string_dec (B.zero 16)));
    Alcotest.test_case "division by zero (SMT-LIB)" `Quick (fun () ->
        let a = B.of_int ~width:8 17 and z = B.zero 8 in
        check_bool "udiv" true (B.equal (B.udiv a z) (B.ones 8));
        check_bool "urem" true (B.equal (B.urem a z) a));
    Alcotest.test_case "extract/concat" `Quick (fun () ->
        let v = B.of_int ~width:16 0xabcd in
        check_int "hi" 0xab (u (B.extract ~hi:15 ~lo:8 v));
        check_int "lo" 0xcd (u (B.extract ~hi:7 ~lo:0 v));
        let back =
          B.concat (B.extract ~hi:15 ~lo:8 v) (B.extract ~hi:7 ~lo:0 v)
        in
        check_bool "concat" true (B.equal back v));
    Alcotest.test_case "sext" `Quick (fun () ->
        check_int "neg" 0xfff0 (u (B.sext 16 (B.of_int ~width:8 0xf0)));
        check_int "pos" 0x0070 (u (B.sext 16 (B.of_int ~width:8 0x70))));
    Alcotest.test_case "shift bv amounts saturate" `Quick (fun () ->
        let a = B.of_int ~width:8 0xff in
        check_int "shl 200" 0 (u (B.shl_bv a (B.of_int ~width:8 200)));
        check_int "lshr 200" 0 (u (B.lshr_bv a (B.of_int ~width:8 200)));
        check_int "ashr neg 200" 0xff
          (u (B.ashr_bv a (B.of_int ~width:8 200))));
    Alcotest.test_case "popcount" `Quick (fun () ->
        check_int "0xff" 8 (B.popcount (B.of_int ~width:8 0xff));
        check_int "0" 0 (B.popcount (B.zero 64)));
    Alcotest.test_case "wide ops (>64 bits)" `Quick (fun () ->
        let w = 100 in
        let a = B.of_string ~width:w "0xfffffffffffffffffffffffff" in
        check_bool "a + 1 - 1 = a" true
          (B.equal a B.(sub (add a (one w)) (one w)));
        check_bool "a * 1 = a" true (B.equal a (B.mul a (B.one w)));
        check_bool "a / a = 1" true (B.equal (B.one w) (B.udiv a a)));
  ]

(* {1 Properties vs the native-int oracle} *)

let gen_pair w =
  QCheck.Gen.(pair (int_bound ((1 lsl w) - 1)) (int_bound ((1 lsl w) - 1)))

let arb_pair w =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "(%d, %d)" a b)
    (gen_pair w)

let binop_agrees name w f_bv f_int =
  QCheck.Test.make ~count:500 ~name (arb_pair w) (fun (a, b) ->
      let va = B.of_int ~width:w a and vb = B.of_int ~width:w b in
      u (f_bv va vb) = mask w (f_int a b))

let w = 13

let props =
  [
    binop_agrees "add" w B.add ( + );
    binop_agrees "sub" w B.sub ( - );
    binop_agrees "mul" w B.mul ( * );
    binop_agrees "and" w B.logand ( land );
    binop_agrees "or" w B.logor ( lor );
    binop_agrees "xor" w B.logxor ( lxor );
    binop_agrees "udiv" w B.udiv (fun a b ->
        if b = 0 then (1 lsl w) - 1 else a / b);
    binop_agrees "urem" w B.urem (fun a b -> if b = 0 then a else a mod b);
    QCheck.Test.make ~count:500 ~name:"ult agrees" (arb_pair w)
      (fun (a, b) ->
        B.ult (B.of_int ~width:w a) (B.of_int ~width:w b) = (a < b));
    QCheck.Test.make ~count:500 ~name:"slt agrees" (arb_pair w)
      (fun (a, b) ->
        let va = B.of_int ~width:w a and vb = B.of_int ~width:w b in
        B.slt va vb = (s ~w va < s ~w vb));
    QCheck.Test.make ~count:500 ~name:"sdiv truncates toward zero"
      (arb_pair w) (fun (a, b) ->
        let va = B.of_int ~width:w a and vb = B.of_int ~width:w b in
        let sa = s ~w va and sb = s ~w vb in
        QCheck.assume (sb <> 0);
        (* OCaml division truncates toward zero, like bvsdiv. *)
        s ~w (B.sdiv va vb) = sa / sb
        || (* quotient overflow: min_int / -1 wraps *)
        (sa = -(1 lsl (w - 1)) && sb = -1));
    QCheck.Test.make ~count:500 ~name:"neg = 0 - x"
      (QCheck.int_bound ((1 lsl w) - 1)) (fun a ->
        let va = B.of_int ~width:w a in
        B.equal (B.neg va) (B.sub (B.zero w) va));
    QCheck.Test.make ~count:500 ~name:"shl/lshr agree with int"
      (QCheck.pair (QCheck.int_bound ((1 lsl w) - 1)) (QCheck.int_bound (w - 1)))
      (fun (a, k) ->
        let va = B.of_int ~width:w a in
        u (B.shl va k) = mask w (a lsl k) && u (B.lshr va k) = a lsr k);
    QCheck.Test.make ~count:500 ~name:"lognot involutive"
      (QCheck.int_bound ((1 lsl w) - 1)) (fun a ->
        let va = B.of_int ~width:w a in
        B.equal va (B.lognot (B.lognot va)));
    QCheck.Test.make ~count:200 ~name:"udivrem reconstruction" (arb_pair w)
      (fun (a, b) ->
        QCheck.assume (b <> 0);
        let va = B.of_int ~width:w a and vb = B.of_int ~width:w b in
        let q = B.udiv va vb and r = B.urem va vb in
        B.equal va (B.add (B.mul q vb) r) && B.ult r vb);
    QCheck.Test.make ~count:200 ~name:"bytes roundtrip"
      (QCheck.string_of_size (QCheck.Gen.int_range 1 32))
      (fun str -> String.equal str (B.to_bytes_be (B.of_bytes_be str)));
    QCheck.Test.make ~count:200 ~name:"dec string roundtrip"
      (QCheck.int_bound ((1 lsl w) - 1)) (fun a ->
        let va = B.of_int ~width:w a in
        B.equal va (B.of_string ~width:w (B.to_string_dec va)));
  ]

(* {1 Native-word conversions vs bit-by-bit references} *)

(* A random value of a random width in 1-130, built byte by byte. *)
let arb_wide =
  QCheck.make
    ~print:(fun v -> Format.asprintf "%a" B.pp v)
    QCheck.Gen.(
      int_range 1 130 >>= fun w ->
      string_size ~gen:char (return ((w + 7) / 8)) >|= fun s ->
      B.extract ~hi:(w - 1) ~lo:0 (B.of_bytes_be s))

(* [to_int_trunc] as it was: one [testbit] per bit. *)
let to_int_trunc_bitwise v =
  let acc = ref 0 in
  for i = min (B.width v) (Sys.int_size - 1) - 1 downto 0 do
    acc := (!acc lsl 1) lor if B.testbit v i then 1 else 0
  done;
  !acc

let word_props =
  [
    QCheck.Test.make ~count:1000 ~name:"to_int_trunc matches bit-by-bit"
      arb_wide (fun v -> B.to_int_trunc v = to_int_trunc_bitwise v);
    QCheck.Test.make ~count:1000 ~name:"to_int is Some iff bits 62+ are clear"
      arb_wide (fun v ->
        let fits =
          List.for_all
            (fun i -> not (B.testbit v i))
            (List.init (max 0 (B.width v - 62)) (fun i -> 62 + i))
        in
        B.to_int v = if fits then Some (to_int_trunc_bitwise v) else None);
    QCheck.Test.make ~count:1000 ~name:"words hold each bit, and round-trip"
      arb_wide (fun v ->
        let w = B.width v in
        let ws = Array.make (B.nwords w + 1) (-1) in
        B.to_words v ws 1;
        let bit i = (ws.(1 + (i / B.word_bits)) lsr (i mod B.word_bits)) land 1 in
        ws.(0) = -1
        && List.for_all
             (fun i -> bit i = if i < w && B.testbit v i then 1 else 0)
             (List.init (B.word_bits * B.nwords w) Fun.id)
        && B.equal v (B.of_words ~width:w ws 1));
  ]

let tests =
  unit_tests @ List.map QCheck_alcotest.to_alcotest (props @ word_props)
