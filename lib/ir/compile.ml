(** Closure compilation of IR programs — the compiled fast path.

    [compile prog stores] lowers a validated program to a chain of OCaml
    closures {e once}, so the per-packet cost is a closure walk instead
    of re-matching [blocks]/[instrs] constructors on every packet. The
    result observes {e exactly} the semantics of {!Interp.run}: the same
    outcomes, the same crash taxonomy with byte-identical crash
    messages, and the same instruction counts (one per executed
    instruction, one per block terminator, with the budget checked at
    the same points). The differential oracle and the batch tests run
    both engines against each other to enforce this.

    Every value is native words, at any width. A register of width [w]
    occupies [B.nwords w] consecutive slots of one [int] register file,
    each a masked 61-bit unsigned word, least significant first
    ({!B.to_words}); a register of at most 61 bits is a single slot.
    Operations on single-slot values are native arithmetic. The wide
    operations that stateful elements run on flow keys and counters —
    move and zero-extension, concatenation, extraction, equality,
    addition, loads and stores of 8 or more bytes — have word-level
    closures. Any other operation with an operand wider than a word
    takes the generic path: it reads its operands as {!B.t}, applies
    {!Interp.eval_rhs} and writes the result back as words.

    Private stores are bound once, when the closures are built: their
    native-word tables ({!Stores}) are read and written straight from
    the register file. Static store contents are snapshotted into the
    same kind of table, rebuilt whenever their generation counter
    moves. Packet bytes are accessed copy-free, straight out of the
    packet buffer after one window check — the same idiom as
    [Checksum.over_packet].

    The returned function reuses one preallocated register file, so it
    is not re-entrant; the runtime drives packets sequentially. *)

module B = Vdp_bitvec.Bitvec
module P = Vdp_packet.Packet
open Types

let crash c = raise (Interp.Crash c)

let store_decl prog name =
  (* Validation guarantees the declaration exists. *)
  List.find (fun d -> d.store_name = name) prog.stores

(* Block execution result encoding, so terminator closures return an
   unboxed [int]: label >= 0 continues, -1 drops, -(p+2) emits to p. *)
let drop_code = -1
let emit_code p = -(p + 2)

(* {1 Closures}

   One closure per instruction, everything inlined into its body:
   instruction counting, the budget check, operand fetches and the
   operation itself — no per-operand thunks and no shared "bump"
   helper, so executing an instruction is a single indirect call.
   Closures are chained in continuation-passing style (each tail-calls
   the next; the terminator returns the block-result code), so running
   a block is a closure walk with no dispatch loop.

   Operands are uniform register-file slots: constants are interned
   once, as words, into a read-only tail of the register array (the
   reset only clears the real-register prefix), so a fetch is one
   unsafe array load whether the operand was [Reg] or [Const].

   A must-reach dataflow pass finds registers that some path can read
   before writing; only those need the interpreter's zero-init. For
   Builder-generated programs the set is empty and reset skips the
   register file entirely. *)

type state = {
  mutable pkt : P.t;
  mutable count : int;
}

(* Enumerate register uses, register defs and constant operands of one
   instruction, uses before defs (operand evaluation precedes the
   destination write). *)
let iter_instr ~use ~def ~const ins =
  let rv = function Reg r -> use r | Const c -> const c in
  let rhs = function
    | Move v | Unop (_, v) | Zext (_, v) | Sext (_, v) | Extract (_, _, v) ->
      rv v
    | Binop (_, a, b) | Cmp (_, a, b) | Concat (a, b) ->
      rv a;
      rv b
    | Select (c, a, b) ->
      rv c;
      rv a;
      rv b
  in
  match ins with
  | Assign (r, x) ->
    rhs x;
    def r
  | Load (r, off, _) ->
    rv off;
    def r
  | Store (off, v, _) ->
    rv off;
    rv v
  | Load_len r -> def r
  | Pull _ | Push _ -> ()
  | Take v | Meta_set (_, v) | Assert (v, _) -> rv v
  | Meta_get (r, _) -> def r
  | Kv_read (r, _, key) ->
    rv key;
    def r
  | Kv_write (_, key, v) ->
    rv key;
    rv v

let iter_term ~use ~const = function
  | Branch (c, _, _) -> (
    match c with Reg r -> use r | Const v -> const v)
  | Goto _ | Emit _ | Drop | Abort _ -> ()

(* Registers a path can read before any write reaches them: forward
   must-write analysis (intersection over predecessors), reads checked
   against the definitely-written set at each point. *)
let read_before_write (prog : program) =
  let nregs = Array.length prog.reg_widths in
  let nblocks = Array.length prog.blocks in
  let written_in = Array.make_matrix nblocks nregs false in
  let reached = Array.make nblocks false in
  reached.(0) <- true;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun l blk ->
        if reached.(l) then begin
          let w = Array.copy written_in.(l) in
          List.iter
            (fun ins ->
              iter_instr ins ~use:ignore ~const:ignore ~def:(fun r ->
                  w.(r) <- true))
            blk.instrs;
          let flow_to l' =
            if not reached.(l') then begin
              reached.(l') <- true;
              Array.blit w 0 written_in.(l') 0 nregs;
              changed := true
            end
            else
              for r = 0 to nregs - 1 do
                if written_in.(l').(r) && not w.(r) then begin
                  written_in.(l').(r) <- false;
                  changed := true
                end
              done
          in
          match blk.term with
          | Goto l' -> flow_to l'
          | Branch (_, t, e) ->
            flow_to t;
            flow_to e
          | Emit _ | Drop | Abort _ -> ()
        end)
      prog.blocks
  done;
  let unsafe = Array.make nregs false in
  Array.iteri
    (fun l blk ->
      if reached.(l) then begin
        let w = Array.copy written_in.(l) in
        let use r = if not w.(r) then unsafe.(r) <- true in
        List.iter
          (fun ins ->
            iter_instr ins ~use ~const:ignore ~def:(fun r -> w.(r) <- true))
          blk.instrs;
        iter_term blk.term ~use ~const:ignore
      end)
    prog.blocks;
  let out = ref [] in
  for r = nregs - 1 downto 0 do
    if unsafe.(r) then out := r :: !out
  done;
  Array.of_list !out

(* A 61-bit word: two of them sum without touching the sign bit, so
   [1 lsl w], [x + y], [x - y] and the sign-extension constants below
   stay in range for every single-slot width. *)
let word_mask = (1 lsl B.word_bits) - 1

let build ~budget (prog : program) (stores : Stores.t) : P.t -> Interp.result
    =
  let nregs = Array.length prog.reg_widths in
  let slot = Array.make nregs 0 in
  let nslots =
    Array.fold_left
      (fun (r, n) w ->
        slot.(r) <- n;
        (r + 1, n + B.nwords w))
      (0, 0) prog.reg_widths
    |> snd
  in
  (* Intern every constant operand, as words, into the pool tail. *)
  let pool = Hashtbl.create 16 in
  let npool = ref 0 in
  let walk_const v =
    let ws = Stores.words v in
    if not (Hashtbl.mem pool ws) then begin
      Hashtbl.replace pool ws (nslots + !npool);
      npool := !npool + Array.length ws
    end
  in
  Array.iter
    (fun blk ->
      List.iter
        (iter_instr ~use:ignore ~def:ignore ~const:walk_const)
        blk.instrs;
      iter_term ~use:ignore ~const:walk_const blk.term)
    prog.blocks;
  let regs = Array.make (nslots + !npool) 0 in
  Hashtbl.iter (fun ws i -> Array.blit ws 0 regs i (Array.length ws)) pool;
  let src = function
    | Reg r -> slot.(r)
    | Const v -> Hashtbl.find pool (Stores.words v)
  in
  let zero_list =
    read_before_write prog
    |> Array.to_list
    |> List.concat_map (fun r ->
           List.init (B.nwords prog.reg_widths.(r)) (fun i -> slot.(r) + i))
    |> Array.of_list
  in
  let nzero = Array.length zero_list in
  let st = { pkt = P.create ""; count = 0 } in
  let mask w = (1 lsl w) - 1 in
  let width_rv = function
    | Const v -> B.width v
    | Reg r -> prog.reg_widths.(r)
  in
  (* Does every register and constant of [ins] fit one word? *)
  let fits ins =
    let ok = ref true in
    let reg r = ok := !ok && prog.reg_widths.(r) <= B.word_bits in
    iter_instr ins ~use:reg ~def:reg ~const:(fun c ->
        ok := !ok && B.width c <= B.word_bits);
    !ok
  in
  (* The generic path for a wide operation: operands as bitvectors, the
     interpreter's own operator, the result back as words. *)
  let value = function
    | Const v -> v
    | Reg r -> B.of_words ~width:prog.reg_widths.(r) regs slot.(r)
  in
  (* Assignments with an operand or result wider than a word: the
     operation is a closure of its own, word-level where one is written
     and generic otherwise; the top word of a result is masked to
     [top]. *)
  let wide_assign r rhs (k : unit -> int) : unit -> int =
    let dw = prog.reg_widths.(r) in
    let d = slot.(r) and dn = B.nwords dw in
    let top = mask (dw - (B.word_bits * (dn - 1))) in
    let words rv = (src rv, B.nwords (width_rv rv)) in
    let op =
      match rhs with
      | Move v | Zext (_, v) ->
        let a, an = words v in
        fun () ->
          Array.blit regs a regs d an;
          Array.fill regs (d + an) (dn - an) 0
      | Concat (va, vb) ->
        (* [b] fills the low words, then [a] is or-ed in shifted left by
           [width b] bits. The result is wider than either operand, so
           neither can be the destination. *)
        let a, an = words va and b, bn = words vb in
        let q = width_rv vb / B.word_bits and sh = width_rv vb mod B.word_bits in
        fun () ->
          for i = 0 to dn - 1 do
            Array.unsafe_set regs (d + i)
              (if i < bn then Array.unsafe_get regs (b + i) else 0)
          done;
          for i = 0 to an - 1 do
            let x = Array.unsafe_get regs (a + i) and j = d + q + i in
            Array.unsafe_set regs j
              (Array.unsafe_get regs j lor ((x lsl sh) land word_mask));
            if sh > 0 && q + i + 1 < dn then
              Array.unsafe_set regs (j + 1)
                (Array.unsafe_get regs (j + 1) lor (x lsr (B.word_bits - sh)))
          done
      | Extract (_, lo, v) ->
        let a, an = words v in
        let q = lo / B.word_bits and sh = lo mod B.word_bits in
        fun () ->
          for i = 0 to dn - 1 do
            let j = q + i in
            let x = Array.unsafe_get regs (a + j) lsr sh in
            let y =
              if sh > 0 && j + 1 < an then
                Array.unsafe_get regs (a + j + 1) lsl (B.word_bits - sh)
              else 0
            in
            Array.unsafe_set regs (d + i)
              ((x lor y) land if i = dn - 1 then top else word_mask)
          done
      | Cmp (((Eq | Ne) as op), va, vb) ->
        let a, an = words va and b, _ = words vb in
        let eq = if op = Eq then 1 else 0 in
        fun () ->
          let i = ref 0 in
          while
            !i < an
            && Array.unsafe_get regs (a + !i) = Array.unsafe_get regs (b + !i)
          do
            incr i
          done;
          Array.unsafe_set regs d (if !i = an then eq else 1 - eq)
      | Binop (Add, va, vb) ->
        let a, _ = words va and b, _ = words vb in
        fun () ->
          let carry = ref 0 in
          for i = 0 to dn - 1 do
            let x =
              Array.unsafe_get regs (a + i) + Array.unsafe_get regs (b + i)
              + !carry
            in
            Array.unsafe_set regs (d + i) (x land word_mask);
            carry := x lsr B.word_bits
          done;
          Array.unsafe_set regs (d + dn - 1)
            (Array.unsafe_get regs (d + dn - 1) land top)
      | _ -> fun () -> B.to_words (Interp.eval_rhs value rhs) regs d
    in
    fun () ->
      let c = st.count + 1 in
      st.count <- c;
      if c > budget then crash Budget_exhausted;
      op ();
      k ()
  in
  (* Loads and stores of any width but the specialised 1, 2 and 4
     bytes: one byte at a time into or out of the words, from the least
     significant byte, [sh] its bit offset within word [j]. *)
  let load_words r off n (k : unit -> int) : unit -> int =
    let o = src off and d = slot.(r) and dn = B.nwords (8 * n) in
    fun () ->
      let c = st.count + 1 in
      st.count <- c;
      if c > budget then crash Budget_exhausted;
      let p = st.pkt in
      let ov = Array.unsafe_get regs o in
      if ov + n > p.P.len then Interp.out_of_window "load" ov n p.P.len;
      let last = p.P.head + ov + n - 1 in
      Array.fill regs d dn 0;
      let j = ref d and sh = ref 0 in
      for i = 0 to n - 1 do
        let x = Char.code (Bytes.unsafe_get p.P.buf (last - i)) in
        Array.unsafe_set regs !j
          (Array.unsafe_get regs !j lor ((x lsl !sh) land word_mask));
        sh := !sh + 8;
        if !sh >= B.word_bits then begin
          sh := !sh - B.word_bits;
          incr j;
          Array.unsafe_set regs !j (x lsr (8 - !sh))
        end
      done;
      k ()
  in
  let store_words off v n (k : unit -> int) : unit -> int =
    let o = src off and a = src v in
    fun () ->
      let c = st.count + 1 in
      st.count <- c;
      if c > budget then crash Budget_exhausted;
      let p = st.pkt in
      let ov = Array.unsafe_get regs o in
      if ov + n > p.P.len then Interp.out_of_window "store" ov n p.P.len;
      let last = p.P.head + ov + n - 1 in
      let j = ref a and sh = ref 0 in
      for i = 0 to n - 1 do
        let x = Array.unsafe_get regs !j lsr !sh in
        sh := !sh + 8;
        let x =
          if !sh >= B.word_bits then begin
            sh := !sh - B.word_bits;
            incr j;
            (* The byte straddles two words. 8n is never a multiple of
               61 for n <= 16, so word [j] is part of the value. *)
            x lor (Array.unsafe_get regs !j lsl (8 - !sh))
          end
          else x
        in
        Bytes.unsafe_set p.P.buf (last - i) (Char.unsafe_chr (x land 0xff))
      done;
      k ()
  in
  (* A store's table, bound now: private stores' own tables; for static
     ones a snapshot of the contents, rebuilt lazily whenever config
     churn moves their generation counter. *)
  let bind_store name =
    let d = store_decl prog name in
    match d.kind with
    | Private -> (Stores.find stores name, None)
    | Static ->
      let s = Stores.make d and gen = ref (-1) in
      let sync () =
        let g = Static_data.generation d.init in
        if !gen <> g then begin
          Stores.refill s;
          gen := g
        end
      in
      (s, Some sync)
  in
  (* One closure per instruction: count, budget check, fetches and the
     operation inline, then a tail call to the rest of the block. *)
  let instr_fn ins (k : unit -> int) : unit -> int =
    match ins with
    | Assign (r, rhs) when not (fits ins) -> wide_assign r rhs k
    | Assign (r, rhs) -> (
      let dw = prog.reg_widths.(r) in
      let r = slot.(r) in
      let m = mask dw in
      match rhs with
      | Move v | Zext (_, v) ->
        let a = src v in
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r (Array.unsafe_get regs a);
          k ()
      | Unop (Not, v) ->
        let a = src v in
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r (lnot (Array.unsafe_get regs a) land m);
          k ()
      | Unop (Neg, v) ->
        let a = src v in
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r (-Array.unsafe_get regs a land m);
          k ()
      | Binop (op, va, vb) -> (
        let a = src va and b = src vb in
        let w = dw in
        let sb = 1 lsl (w - 1) and fw = 1 lsl w in
        match op with
        | Add ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              ((Array.unsafe_get regs a + Array.unsafe_get regs b) land m);
            k ()
        | Sub ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              ((Array.unsafe_get regs a - Array.unsafe_get regs b) land m);
            k ()
        | Mul ->
          (* Native [( * )] wraps mod 2^63; [land m] recovers the low
             [w] bits exactly. *)
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              (Array.unsafe_get regs a * Array.unsafe_get regs b land m);
            k ()
        | Udiv ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let d = Array.unsafe_get regs b in
            if d = 0 then crash Div_by_zero;
            Array.unsafe_set regs r (Array.unsafe_get regs a / d);
            k ()
        | Urem ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let d = Array.unsafe_get regs b in
            if d = 0 then crash Div_by_zero;
            Array.unsafe_set regs r (Array.unsafe_get regs a mod d);
            k ()
        | Sdiv ->
          (* OCaml (/) truncates toward zero, matching SMT-LIB bvsdiv. *)
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let d = Array.unsafe_get regs b in
            if d = 0 then crash Div_by_zero;
            let x = Array.unsafe_get regs a in
            let xs = if x land sb <> 0 then x - fw else x in
            let ds = if d land sb <> 0 then d - fw else d in
            Array.unsafe_set regs r (xs / ds land m);
            k ()
        | Srem ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let d = Array.unsafe_get regs b in
            if d = 0 then crash Div_by_zero;
            let x = Array.unsafe_get regs a in
            let xs = if x land sb <> 0 then x - fw else x in
            let ds = if d land sb <> 0 then d - fw else d in
            Array.unsafe_set regs r (xs mod ds land m);
            k ()
        | And ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              (Array.unsafe_get regs a land Array.unsafe_get regs b);
            k ()
        | Or ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              (Array.unsafe_get regs a lor Array.unsafe_get regs b);
            k ()
        | Xor ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              (Array.unsafe_get regs a lxor Array.unsafe_get regs b);
            k ()
        | Shl ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let n = Array.unsafe_get regs b in
            Array.unsafe_set regs r
              (if n >= w then 0 else (Array.unsafe_get regs a lsl n) land m);
            k ()
        | Lshr ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let n = Array.unsafe_get regs b in
            Array.unsafe_set regs r
              (if n >= w then 0 else Array.unsafe_get regs a lsr n);
            k ()
        | Ashr ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let n = Array.unsafe_get regs b in
            let x = Array.unsafe_get regs a in
            let xs = if x land sb <> 0 then x - fw else x in
            Array.unsafe_set regs r
              (if n >= w then if xs < 0 then m else 0
               else xs asr n land m);
            k ())
      | Cmp (op, va, vb) -> (
        let a = src va and b = src vb in
        let w = width_rv va in
        let sb = 1 lsl (w - 1) and fw = 1 lsl w in
        match op with
        | Eq ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              (if Array.unsafe_get regs a = Array.unsafe_get regs b then 1
               else 0);
            k ()
        | Ne ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              (if Array.unsafe_get regs a <> Array.unsafe_get regs b then 1
               else 0);
            k ()
        | Ult ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              (if Array.unsafe_get regs a < Array.unsafe_get regs b then 1
               else 0);
            k ()
        | Ule ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r
              (if Array.unsafe_get regs a <= Array.unsafe_get regs b then 1
               else 0);
            k ()
        | Slt ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let x = Array.unsafe_get regs a and y = Array.unsafe_get regs b in
            let xs = if x land sb <> 0 then x - fw else x in
            let ys = if y land sb <> 0 then y - fw else y in
            Array.unsafe_set regs r (if xs < ys then 1 else 0);
            k ()
        | Sle ->
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let x = Array.unsafe_get regs a and y = Array.unsafe_get regs b in
            let xs = if x land sb <> 0 then x - fw else x in
            let ys = if y land sb <> 0 then y - fw else y in
            Array.unsafe_set regs r (if xs <= ys then 1 else 0);
            k ())
      | Select (vc, va, vb) ->
        let cc = src vc and a = src va and b = src vb in
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r
            (if Array.unsafe_get regs cc land 1 <> 0 then
               Array.unsafe_get regs a
             else Array.unsafe_get regs b);
          k ()
      | Extract (_, lo, v) ->
        (* dw = hi - lo + 1 by validation, so [m] is the slice mask. *)
        let a = src v in
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r ((Array.unsafe_get regs a lsr lo) land m);
          k ()
      | Concat (va, vb) ->
        let a = src va and b = src vb in
        let wb = width_rv vb in
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r
            ((Array.unsafe_get regs a lsl wb) lor Array.unsafe_get regs b);
          k ()
      | Sext (w2, v) ->
        let a = src v in
        let wv = width_rv v in
        if wv = w2 then
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            Array.unsafe_set regs r (Array.unsafe_get regs a);
            k ()
        else
          let sign = 1 lsl (wv - 1) in
          let ext = mask w2 land lnot (mask wv) in
          fun () ->
            let c = st.count + 1 in
            st.count <- c;
            if c > budget then crash Budget_exhausted;
            let x = Array.unsafe_get regs a in
            Array.unsafe_set regs r
              (if x land sign <> 0 then x lor ext else x);
            k ())
    | Load (r0, off, n) -> (
      let r = slot.(r0) and o = src off in
      match n with
      | 1 ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          let p = st.pkt in
          let ov = Array.unsafe_get regs o in
          if ov + 1 > p.P.len then Interp.out_of_window "load" ov 1 p.P.len;
          (* In-window implies in-buffer: head + len <= |buf|. *)
          Array.unsafe_set regs r
            (Char.code (Bytes.unsafe_get p.P.buf (p.P.head + ov)));
          k ()
      | 2 ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          let p = st.pkt in
          let ov = Array.unsafe_get regs o in
          if ov + 2 > p.P.len then Interp.out_of_window "load" ov 2 p.P.len;
          let base = p.P.head + ov in
          let buf = p.P.buf in
          Array.unsafe_set regs r
            ((Char.code (Bytes.unsafe_get buf base) lsl 8)
            lor Char.code (Bytes.unsafe_get buf (base + 1)));
          k ()
      | 4 ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          let p = st.pkt in
          let ov = Array.unsafe_get regs o in
          if ov + 4 > p.P.len then Interp.out_of_window "load" ov 4 p.P.len;
          let base = p.P.head + ov in
          let buf = p.P.buf in
          Array.unsafe_set regs r
            ((Char.code (Bytes.unsafe_get buf base) lsl 24)
            lor (Char.code (Bytes.unsafe_get buf (base + 1)) lsl 16)
            lor (Char.code (Bytes.unsafe_get buf (base + 2)) lsl 8)
            lor Char.code (Bytes.unsafe_get buf (base + 3)));
          k ()
      | n -> load_words r0 off n k)
    | Store (off, v, n) -> (
      let o = src off and a = src v in
      match n with
      | 1 ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          let p = st.pkt in
          let ov = Array.unsafe_get regs o in
          if ov + 1 > p.P.len then Interp.out_of_window "store" ov 1 p.P.len;
          Bytes.unsafe_set p.P.buf (p.P.head + ov)
            (Char.unsafe_chr (Array.unsafe_get regs a land 0xff));
          k ()
      | 2 ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          let p = st.pkt in
          let ov = Array.unsafe_get regs o in
          if ov + 2 > p.P.len then Interp.out_of_window "store" ov 2 p.P.len;
          let base = p.P.head + ov in
          let buf = p.P.buf in
          let x = Array.unsafe_get regs a in
          Bytes.unsafe_set buf base (Char.unsafe_chr ((x lsr 8) land 0xff));
          Bytes.unsafe_set buf (base + 1) (Char.unsafe_chr (x land 0xff));
          k ()
      | n -> store_words off v n k)
    | Load_len r ->
      let r = slot.(r) in
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        Array.unsafe_set regs r st.pkt.P.len;
        k ()
    | Pull n ->
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        let p = st.pkt in
        if n > p.P.len then
          crash (Out_of_bounds (Printf.sprintf "pull %d" n));
        p.P.head <- p.P.head + n;
        p.P.len <- p.P.len - n;
        k ()
    | Push n ->
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        let p = st.pkt in
        if n > p.P.head then crash Headroom_exhausted;
        p.P.head <- p.P.head - n;
        p.P.len <- p.P.len + n;
        Bytes.fill p.P.buf p.P.head n '\000';
        k ()
    | Take v ->
      let a = src v in
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        let n = Array.unsafe_get regs a in
        let p = st.pkt in
        if n > p.P.len then
          crash (Out_of_bounds (Printf.sprintf "take %d" n));
        p.P.len <- n;
        k ()
    | Meta_get (r, mt) -> (
      let r = slot.(r) in
      let m = mask (meta_width mt) in
      match mt with
      | Port ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r (st.pkt.P.port land m);
          k ()
      | Color ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r (st.pkt.P.color land m);
          k ()
      | W0 ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r (st.pkt.P.w0 land m);
          k ()
      | W1 ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r (st.pkt.P.w1 land m);
          k ())
    | Meta_set (mt, v) -> (
      let a = src v in
      match mt with
      | Port ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          st.pkt.P.port <- Array.unsafe_get regs a;
          k ()
      | Color ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          st.pkt.P.color <- Array.unsafe_get regs a;
          k ()
      | W0 ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          st.pkt.P.w0 <- Array.unsafe_get regs a;
          k ()
      | W1 ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          st.pkt.P.w1 <- Array.unsafe_get regs a;
          k ())
    | Kv_read (r, name, key) -> (
      let s, sync = bind_store name in
      let kk = src key and r = slot.(r) in
      match (s.Stores.table, sync) with
      | Narrow h, None ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Array.unsafe_set regs r
            (Stores.get_int s h (Array.unsafe_get regs kk));
          k ()
      | Narrow h, Some sync ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          sync ();
          Array.unsafe_set regs r
            (Stores.get_int s h (Array.unsafe_get regs kk));
          k ()
      | Wide h, sync ->
        let sync = Option.value sync ~default:ignore in
        let vn = s.Stores.val_words in
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          sync ();
          Stores.copy (Stores.get_words s h regs kk) 0 regs r vn;
          k ())
    | Kv_write (name, key, v) -> (
      let s = Stores.find stores name in
      let kk = src key and a = src v in
      match s.Stores.table with
      | Narrow h ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Stores.Int_tbl.replace h (Array.unsafe_get regs kk)
            (Array.unsafe_get regs a);
          k ()
      | Wide h ->
        fun () ->
          let c = st.count + 1 in
          st.count <- c;
          if c > budget then crash Budget_exhausted;
          Stores.set_words s h regs kk a;
          k ())
    | Assert (cnd, msg) ->
      let a = src cnd in
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        if Array.unsafe_get regs a land 1 = 0 then crash (Assert_failed msg);
        k ()
  in
  let term_fn t : unit -> int =
    match t with
    | Goto l ->
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        l
    | Branch (cnd, t1, e) ->
      let a = src cnd in
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        if Array.unsafe_get regs a land 1 <> 0 then t1 else e
    | Emit p ->
      let code = emit_code p in
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        code
    | Drop ->
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        drop_code
    | Abort msg ->
      fun () ->
        let c = st.count + 1 in
        st.count <- c;
        if c > budget then crash Budget_exhausted;
        crash (Aborted msg)
  in
  let blocks =
    Array.map
      (fun blk -> List.fold_right instr_fn blk.instrs (term_fn blk.term))
      prog.blocks
  in
  (* Emit outcomes preallocated; validation bounds Emit ports. *)
  let emitted = Array.init (max 1 prog.nports) (fun p -> Emitted p) in
  let dummy = st.pkt in
  fun pkt ->
    st.pkt <- pkt;
    for i = 0 to nzero - 1 do
      Array.unsafe_set regs (Array.unsafe_get zero_list i) 0
    done;
    st.count <- 0;
    let outcome =
      try
        let rec go l =
          let t = (Array.unsafe_get blocks l) () in
          if t >= 0 then go t
          else if t = drop_code then Dropped
          else Array.unsafe_get emitted (-t - 2)
        in
        go 0
      with Interp.Crash c -> Crashed c
    in
    st.pkt <- dummy;
    { Interp.outcome; instr_count = st.count }

(** [compile prog stores] — validate and lower. Partial application
    [compile prog] performs validation once; applying the store state
    builds the closure program (constant interning, store binding,
    register file allocation). *)
let compile ?(budget = Interp.default_budget) (prog : program) :
    Stores.t -> P.t -> Interp.result =
  build ~budget (Validate.check_program prog)
