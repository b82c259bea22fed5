(** Static well-formedness checks on IR programs.

    Rejects programs the interpreter and the symbolic engine would both
    choke on: width mismatches, dangling block labels, unknown registers
    and stores, writes to static stores, and out-of-range port numbers.
    Every element registered with the Click layer passes this check at
    construction time. *)

open Types

exception Invalid of string

let fail fmt = Format.kasprintf (fun m -> raise (Invalid m)) fmt

let rvalue_width prog = function
  | Const v -> Vdp_bitvec.Bitvec.width v
  | Reg r ->
    if r < 0 || r >= Array.length prog.reg_widths then
      fail "unknown register r%d" r;
    prog.reg_widths.(r)

let check_rhs prog ctx dst_width rhs =
  let rw = rvalue_width prog in
  let expect what actual expected =
    if actual <> expected then
      fail "%s: %s has width %d, expected %d" ctx what actual expected
  in
  match rhs with
  | Move v -> expect "operand" (rw v) dst_width
  | Unop (_, v) -> expect "operand" (rw v) dst_width
  | Binop (_, a, b) ->
    expect "lhs" (rw a) dst_width;
    expect "rhs" (rw b) dst_width
  | Cmp (_, a, b) ->
    expect "dst" dst_width 1;
    if rw a <> rw b then
      fail "%s: comparison of widths %d and %d" ctx (rw a) (rw b)
  | Select (c, a, b) ->
    expect "condition" (rw c) 1;
    expect "then" (rw a) dst_width;
    expect "else" (rw b) dst_width
  | Extract (hi, lo, v) ->
    if lo < 0 || hi < lo || hi >= rw v then
      fail "%s: extract [%d:%d] of width %d" ctx hi lo (rw v);
    expect "dst" dst_width (hi - lo + 1)
  | Concat (a, b) -> expect "dst" dst_width (rw a + rw b)
  | Zext (w, v) | Sext (w, v) ->
    if w < rw v then fail "%s: narrowing extension" ctx;
    expect "dst" dst_width w

let check_program (prog : program) =
  let nblocks = Array.length prog.blocks in
  let store_decl name =
    match List.find_opt (fun d -> d.store_name = name) prog.stores with
    | Some d -> d
    | None -> fail "undeclared store %s" name
  in
  let rw = rvalue_width prog in
  let check_label ctx l =
    if l < 0 || l >= nblocks then fail "%s: dangling block label %d" ctx l
  in
  Array.iteri
    (fun bi block ->
      let ctx = Printf.sprintf "%s: block %d" prog.name bi in
      List.iter
        (fun ins ->
          match ins with
          | Assign (r, rhs) -> check_rhs prog ctx prog.reg_widths.(r) rhs
          | Load (r, off, n) ->
            if n < 1 || n > 16 then fail "%s: load of %d bytes" ctx n;
            if rw off <> 16 then fail "%s: load offset not 16-bit" ctx;
            if prog.reg_widths.(r) <> 8 * n then
              fail "%s: load dst width %d for %d bytes" ctx
                prog.reg_widths.(r) n
          | Store (off, v, n) ->
            if n < 1 || n > 16 then fail "%s: store of %d bytes" ctx n;
            if rw off <> 16 then fail "%s: store offset not 16-bit" ctx;
            if rw v <> 8 * n then
              fail "%s: store value width %d for %d bytes" ctx (rw v) n
          | Load_len r ->
            if prog.reg_widths.(r) <> 16 then fail "%s: len dst not 16-bit" ctx
          | Pull n | Push n ->
            if n < 0 then fail "%s: negative head adjustment" ctx
          | Take v -> if rw v <> 16 then fail "%s: take length not 16-bit" ctx
          | Meta_get (r, m) ->
            if prog.reg_widths.(r) <> meta_width m then
              fail "%s: metadata width mismatch" ctx
          | Meta_set (m, v) ->
            if rw v <> meta_width m then
              fail "%s: metadata width mismatch" ctx
          | Kv_read (r, name, key) ->
            let d = store_decl name in
            if rw key <> d.key_width then fail "%s: key width mismatch" ctx;
            if prog.reg_widths.(r) <> d.val_width then
              fail "%s: value width mismatch" ctx
          | Kv_write (name, key, v) ->
            let d = store_decl name in
            (match d.kind with
            | Static -> fail "%s: write to static store %s" ctx name
            | Private -> ());
            if rw key <> d.key_width then fail "%s: key width mismatch" ctx;
            if rw v <> d.val_width then fail "%s: value width mismatch" ctx
          | Assert (c, _) ->
            if rw c <> 1 then fail "%s: assert condition not 1-bit" ctx)
        block.instrs;
      match block.term with
      | Goto l -> check_label ctx l
      | Branch (c, t, e) ->
        if rw c <> 1 then fail "%s: branch condition not 1-bit" ctx;
        check_label ctx t;
        check_label ctx e
      | Emit p ->
        if p < 0 || p >= prog.nports then fail "%s: emit to port %d" ctx p
      | Drop | Abort _ -> ())
    prog.blocks;
  prog
