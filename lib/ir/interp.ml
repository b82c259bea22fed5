(** Concrete execution of IR programs — the dataplane's fast path.

    Mirrors the symbolic engine exactly: both implement the same
    semantics, including the crash conditions (out-of-window access,
    division by zero, failed assertions, headroom exhaustion). The
    instruction count this interpreter reports is the quantity bounded
    by the paper's "bounded execution" property. *)

module B = Vdp_bitvec.Bitvec
module P = Vdp_packet.Packet
open Types

type result = {
  outcome : outcome;
  instr_count : int;
}

exception Crash of crash

let default_budget = 1_000_000

(** The crash of an [n]-byte ["load"] or ["store"] at offset [o] of an
    [len]-byte window. The compiled runtime raises it too, so the two
    engines' messages are the same bytes. *)
let out_of_window what o n len =
  raise (Crash (Out_of_bounds (Printf.sprintf "%s %d+%d > len %d" what o n len)))

(** The value of [rhs] with operands read by [value]. The one definition
    of operator semantics: the compiled runtime falls back to it for
    operations it has no word-level closure for. *)
let eval_rhs (value : rvalue -> B.t) rhs =
  match rhs with
  | Move v -> value v
  | Unop (Not, v) -> B.lognot (value v)
  | Unop (Neg, v) -> B.neg (value v)
  | Binop (op, a, b) -> (
    let va = value a and vb = value b in
    match op with
    | Add -> B.add va vb
    | Sub -> B.sub va vb
    | Mul -> B.mul va vb
    | Udiv ->
      if B.is_zero vb then raise (Crash Div_by_zero) else B.udiv va vb
    | Urem ->
      if B.is_zero vb then raise (Crash Div_by_zero) else B.urem va vb
    | Sdiv ->
      if B.is_zero vb then raise (Crash Div_by_zero) else B.sdiv va vb
    | Srem ->
      if B.is_zero vb then raise (Crash Div_by_zero) else B.srem va vb
    | And -> B.logand va vb
    | Or -> B.logor va vb
    | Xor -> B.logxor va vb
    | Shl -> B.shl_bv va vb
    | Lshr -> B.lshr_bv va vb
    | Ashr -> B.ashr_bv va vb)
  | Cmp (op, a, b) -> (
    let va = value a and vb = value b in
    B.of_bool
      (match op with
      | Eq -> B.equal va vb
      | Ne -> not (B.equal va vb)
      | Ult -> B.ult va vb
      | Ule -> B.ule va vb
      | Slt -> B.slt va vb
      | Sle -> B.sle va vb))
  | Select (c, a, b) -> if B.is_true (value c) then value a else value b
  | Extract (hi, lo, v) -> B.extract ~hi ~lo (value v)
  | Concat (a, b) -> B.concat (value a) (value b)
  | Zext (w, v) -> B.zext w (value v)
  | Sext (w, v) -> B.sext w (value v)

let run ?(budget = default_budget) (prog : program) (stores : Stores.t)
    (pkt : P.t) : result =
  let regs =
    Array.map (fun w -> B.zero w) prog.reg_widths
  in
  let count = ref 0 in
  let value = function Const v -> v | Reg r -> regs.(r) in
  let value_int rv = B.to_int_trunc (value rv) in
  let bool_of rv = B.is_true (value rv) in
  let exec_instr ins =
    incr count;
    if !count > budget then raise (Crash Budget_exhausted);
    match ins with
    | Assign (r, rhs) ->
      let v = eval_rhs value rhs in
      (* Validated programs cannot trip this; it catches hand-built IR
         with width bugs concretely, as the symbolic engine would. *)
      if B.width v <> prog.reg_widths.(r) then
        invalid_arg
          (Printf.sprintf
             "Interp: %s: assign produces width %d, r%d has width %d"
             prog.name (B.width v) r prog.reg_widths.(r));
      regs.(r) <- v
    | Load (r, off, n) -> (
      let o = value_int off in
      if o + n > P.length pkt then out_of_window "load" o n (P.length pkt)
      else
        let bytes = String.init n (fun i -> Char.chr (P.get_u8 pkt (o + i))) in
        regs.(r) <- B.of_bytes_be bytes)
    | Store (off, v, n) -> (
      let o = value_int off in
      if o + n > P.length pkt then out_of_window "store" o n (P.length pkt)
      else
        let bytes = B.to_bytes_be (value v) in
        String.iteri (fun i c -> P.set_u8 pkt (o + i) (Char.code c)) bytes)
    | Load_len r -> regs.(r) <- B.of_int ~width:16 (P.length pkt)
    | Pull n ->
      if n > P.length pkt then
        raise (Crash (Out_of_bounds (Printf.sprintf "pull %d" n)))
      else P.pull pkt n
    | Push n -> (
      try P.push pkt n with P.Out_of_bounds _ -> raise (Crash Headroom_exhausted))
    | Take v ->
      let n = value_int v in
      if n > P.length pkt then
        raise (Crash (Out_of_bounds (Printf.sprintf "take %d" n)))
      else P.take pkt n
    | Meta_get (r, m) ->
      let v =
        match m with
        | Port -> pkt.P.port
        | Color -> pkt.P.color
        | W0 -> pkt.P.w0
        | W1 -> pkt.P.w1
      in
      regs.(r) <- B.of_int ~width:(meta_width m) v
    | Meta_set (m, v) -> (
      let n = value_int v in
      match m with
      | Port -> pkt.P.port <- n
      | Color -> pkt.P.color <- n
      | W0 -> pkt.P.w0 <- n
      | W1 -> pkt.P.w1 <- n)
    | Kv_read (r, name, key) -> regs.(r) <- Stores.read stores name (value key)
    | Kv_write (name, key, v) -> Stores.write stores name (value key) (value v)
    | Assert (c, msg) ->
      if not (bool_of c) then raise (Crash (Assert_failed msg))
  in
  let rec exec_block label =
    let blk = prog.blocks.(label) in
    List.iter exec_instr blk.instrs;
    incr count;
    if !count > budget then raise (Crash Budget_exhausted);
    match blk.term with
    | Goto l -> exec_block l
    | Branch (c, t, e) -> exec_block (if bool_of c then t else e)
    | Emit p -> Emitted p
    | Drop -> Dropped
    | Abort m -> raise (Crash (Aborted m))
  in
  match exec_block 0 with
  | outcome -> { outcome; instr_count = !count }
  | exception Crash c -> { outcome = Crashed c; instr_count = !count }
