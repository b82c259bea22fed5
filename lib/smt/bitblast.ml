(* Bit-blasting of terms onto the CDCL SAT solver.

   Every bit-vector term maps to an array of SAT literals (LSB first);
   every boolean term maps to one literal. A dedicated variable pinned
   true at level 0 provides constant literals. Results are cached per
   hash-consed term id, so the DAG is encoded once. *)

module B = Vdp_bitvec.Bitvec

type ctx = {
  sat : Sat.t;
  true_lit : int;
  bool_cache : (int, int) Hashtbl.t;        (* term id -> literal *)
  bits_cache : (int, int array) Hashtbl.t;  (* term id -> bit literals *)
  bv_vars : (string, int array) Hashtbl.t;
  bool_vars : (string, int) Hashtbl.t;
  (* AIG-style structural hashing: two-input gates are cached on
     normalized literal pairs, so each distinct gate is encoded exactly
     once per context. Word-level circuits (adders, comparators,
     multiplexers) are built from these gates, so shared cones — e.g.
     [a - b] and [a >= b], which both expand to the adder of
     [a + ~b + 1] — dedup automatically. *)
  and_cache : (int * int, int) Hashtbl.t;
  xor_cache : (int * int, int) Hashtbl.t;
  ite_cache : (int * int * int, int) Hashtbl.t;
  mutable gate_hits : int;
  mutable gate_misses : int;
}

(* [~track] turns on antecedent tracking in the underlying solver
   before the constant-true unit is asserted, so the clause log is
   complete. *)
let create ?(track = false) () =
  let sat = Sat.create () in
  if track then Sat.enable_tracking sat;
  let v = Sat.new_var sat in
  let true_lit = Sat.lit v true in
  Sat.add_clause sat [ true_lit ];
  {
    sat;
    true_lit;
    bool_cache = Hashtbl.create 256;
    bits_cache = Hashtbl.create 256;
    bv_vars = Hashtbl.create 64;
    bool_vars = Hashtbl.create 16;
    and_cache = Hashtbl.create 256;
    xor_cache = Hashtbl.create 256;
    ite_cache = Hashtbl.create 64;
    gate_hits = 0;
    gate_misses = 0;
  }

let gate_hits ctx = ctx.gate_hits
let gate_misses ctx = ctx.gate_misses

let sat ctx = ctx.sat
let false_lit ctx = Sat.lit_not ctx.true_lit
let const_lit ctx b = if b then ctx.true_lit else false_lit ctx
let fresh ctx = Sat.lit (Sat.new_var ctx.sat) true
let clause ctx lits = Sat.add_clause ctx.sat lits

(* {1 Gates} *)

let g_and ctx a b =
  if a = const_lit ctx false || b = const_lit ctx false then const_lit ctx false
  else if a = ctx.true_lit then b
  else if b = ctx.true_lit then a
  else if a = b then a
  else if a = Sat.lit_not b then const_lit ctx false
  else begin
    let key = if a < b then (a, b) else (b, a) in
    match Hashtbl.find_opt ctx.and_cache key with
    | Some o ->
      ctx.gate_hits <- ctx.gate_hits + 1;
      o
    | None ->
      ctx.gate_misses <- ctx.gate_misses + 1;
      let o = fresh ctx in
      clause ctx [ Sat.lit_not o; a ];
      clause ctx [ Sat.lit_not o; b ];
      clause ctx [ o; Sat.lit_not a; Sat.lit_not b ];
      Hashtbl.add ctx.and_cache key o;
      o
  end

let g_or ctx a b = Sat.lit_not (g_and ctx (Sat.lit_not a) (Sat.lit_not b))

let g_xor ctx a b =
  if a = const_lit ctx false then b
  else if b = const_lit ctx false then a
  else if a = ctx.true_lit then Sat.lit_not b
  else if b = ctx.true_lit then Sat.lit_not a
  else if a = b then const_lit ctx false
  else if a = Sat.lit_not b then ctx.true_lit
  else begin
    (* xor(a, b) = xor(|a|, |b|) negated once per negative input, so
       the gate is cached on the sign-stripped pair and the output
       sign is recomputed — xor(a, b), xor(~a, b), xor(a, ~b) and
       xor(~a, ~b) all share one encoding. *)
    let sign = (a land 1) lxor (b land 1) in
    let va = a land lnot 1 and vb = b land lnot 1 in
    let key = if va < vb then (va, vb) else (vb, va) in
    let o =
      match Hashtbl.find_opt ctx.xor_cache key with
      | Some o ->
        ctx.gate_hits <- ctx.gate_hits + 1;
        o
      | None ->
        ctx.gate_misses <- ctx.gate_misses + 1;
        let va, vb = key in
        let o = fresh ctx in
        clause ctx [ Sat.lit_not o; va; vb ];
        clause ctx [ Sat.lit_not o; Sat.lit_not va; Sat.lit_not vb ];
        clause ctx [ o; Sat.lit_not va; vb ];
        clause ctx [ o; va; Sat.lit_not vb ];
        Hashtbl.add ctx.xor_cache key o;
        o
    in
    o lxor sign
  end

let g_iff ctx a b = Sat.lit_not (g_xor ctx a b)

let rec g_ite ctx c t e =
  if c = ctx.true_lit then t
  else if c = const_lit ctx false then e
  else if t = e then t
  else if c land 1 = 1 then g_ite ctx (Sat.lit_not c) e t
  else begin
    let key = (c, t, e) in
    match Hashtbl.find_opt ctx.ite_cache key with
    | Some o ->
      ctx.gate_hits <- ctx.gate_hits + 1;
      o
    | None ->
      ctx.gate_misses <- ctx.gate_misses + 1;
      let o = fresh ctx in
      clause ctx [ Sat.lit_not c; Sat.lit_not t; o ];
      clause ctx [ Sat.lit_not c; t; Sat.lit_not o ];
      clause ctx [ c; Sat.lit_not e; o ];
      clause ctx [ c; e; Sat.lit_not o ];
      clause ctx [ Sat.lit_not t; Sat.lit_not e; o ];
      clause ctx [ t; e; Sat.lit_not o ];
      Hashtbl.add ctx.ite_cache key o;
      o
  end

let g_and_list ctx = List.fold_left (g_and ctx) (const_lit ctx true)
let g_or_list ctx = List.fold_left (g_or ctx) (const_lit ctx false)

(* {1 Word-level circuits over literal arrays (LSB first)} *)

let const_bits ctx v =
  Array.init (B.width v) (fun i -> const_lit ctx (B.testbit v i))

let full_adder ctx a b cin =
  let ab = g_xor ctx a b in
  let sum = g_xor ctx ab cin in
  let carry = g_or ctx (g_and ctx a b) (g_and ctx ab cin) in
  (sum, carry)

(* Returns (sum bits, carry out). *)
let adder ctx a b cin =
  let w = Array.length a in
  let sum = Array.make w (const_lit ctx false) in
  let carry = ref cin in
  for i = 0 to w - 1 do
    let s, c = full_adder ctx a.(i) b.(i) !carry in
    sum.(i) <- s;
    carry := c
  done;
  (sum, !carry)

let bits_not ctx a = ignore ctx; Array.map Sat.lit_not a
let bits_add ctx a b = fst (adder ctx a b (const_lit ctx false))
let bits_neg ctx a = fst (adder ctx (bits_not ctx a) (const_bits ctx (B.zero (Array.length a))) ctx.true_lit)
let bits_sub ctx a b = fst (adder ctx a (bits_not ctx b) ctx.true_lit)

(* a >= b (unsigned) is the carry-out of a + ~b + 1. *)
let bits_uge ctx a b = snd (adder ctx a (bits_not ctx b) ctx.true_lit)
let bits_ult ctx a b = Sat.lit_not (bits_uge ctx a b)

let bits_slt ctx a b =
  (* Flip sign bits, then compare unsigned. *)
  let w = Array.length a in
  let flip bits =
    Array.mapi (fun i l -> if i = w - 1 then Sat.lit_not l else l) bits
  in
  bits_ult ctx (flip a) (flip b)

let bits_eq ctx a b =
  let per_bit = Array.to_list (Array.map2 (g_iff ctx) a b) in
  g_and_list ctx per_bit

let bits_mux ctx c t e = Array.map2 (fun ti ei -> g_ite ctx c ti ei) t e

let bits_mul ctx a b =
  let w = Array.length a in
  let acc = ref (Array.make w (const_lit ctx false)) in
  for i = 0 to w - 1 do
    (* Partial product: (a << i) masked by b_i. *)
    let pp =
      Array.init w (fun j ->
          if j < i then const_lit ctx false else g_and ctx a.(j - i) b.(i))
    in
    acc := bits_add ctx !acc pp
  done;
  !acc

(* Restoring division; matches SMT-LIB semantics including division by
   zero (quotient all-ones, remainder = dividend). Internally keeps the
   remainder at w+1 bits so the shifted value never wraps. *)
let bits_udivrem ctx a b =
  let w = Array.length a in
  let f = const_lit ctx false in
  let bx = Array.append b [| f |] in
  let q = Array.make w f in
  let r = ref (Array.make (w + 1) f) in
  for i = w - 1 downto 0 do
    let r' =
      Array.init (w + 1) (fun j -> if j = 0 then a.(i) else !r.(j - 1))
    in
    let ge = bits_uge ctx r' bx in
    let sub = bits_sub ctx r' bx in
    q.(i) <- ge;
    r := bits_mux ctx ge sub r'
  done;
  (q, Array.sub !r 0 w)

(* Barrel shifter; [fill] supplies the bit shifted in. Amounts >= w
   select [fill] everywhere. *)
let bits_shift ctx ~left ~fill a amount =
  let w = Array.length a in
  let stages =
    let rec bits_needed n acc = if 1 lsl acc >= n then acc else bits_needed n (acc + 1) in
    bits_needed w 0
  in
  let shifted = ref (Array.copy a) in
  for s = 0 to stages - 1 do
    let k = 1 lsl s in
    let cur = !shifted in
    let moved =
      Array.init w (fun i ->
          let src = if left then i - k else i + k in
          if src < 0 || src >= w then fill else cur.(src))
    in
    shifted := bits_mux ctx amount.(s) moved cur
  done;
  (* If the amount is >= w, everything is shifted out. *)
  let wconst = const_bits ctx (B.of_int ~width:w w) in
  let big = bits_uge ctx amount wconst in
  Array.map (fun l -> g_ite ctx big fill l) !shifted

(* {1 Term translation} *)

let rec bits_of ctx (t : Term.t) : int array =
  match Hashtbl.find_opt ctx.bits_cache t.id with
  | Some bits -> bits
  | None ->
    let bits = compute_bits ctx t in
    Hashtbl.add ctx.bits_cache t.id bits;
    bits

and compute_bits ctx (t : Term.t) : int array =
  let w = Term.width t in
  match t.node with
  | Bv_const v -> const_bits ctx v
  | Bv_var (name, _) -> (
    match Hashtbl.find_opt ctx.bv_vars name with
    | Some bits -> bits
    | None ->
      let bits = Array.init w (fun _ -> fresh ctx) in
      Hashtbl.add ctx.bv_vars name bits;
      bits)
  | Bv_not a -> bits_not ctx (bits_of ctx a)
  | Bv_neg a -> bits_neg ctx (bits_of ctx a)
  | Bv_bin (op, a, b) -> (
    let ba = bits_of ctx a and bb = bits_of ctx b in
    match op with
    | Badd -> bits_add ctx ba bb
    | Bsub -> bits_sub ctx ba bb
    | Bmul -> bits_mul ctx ba bb
    | Budiv -> fst (bits_udivrem ctx ba bb)
    | Burem -> snd (bits_udivrem ctx ba bb)
    | Bsdiv | Bsrem ->
      let sign_a = ba.(w - 1) and sign_b = bb.(w - 1) in
      let abs_a = bits_mux ctx sign_a (bits_neg ctx ba) ba in
      let abs_b = bits_mux ctx sign_b (bits_neg ctx bb) bb in
      let q0, r0 = bits_udivrem ctx abs_a abs_b in
      if op = Bsdiv then
        let flip = g_xor ctx sign_a sign_b in
        bits_mux ctx flip (bits_neg ctx q0) q0
      else bits_mux ctx sign_a (bits_neg ctx r0) r0
    | Band -> Array.map2 (g_and ctx) ba bb
    | Bor -> Array.map2 (g_or ctx) ba bb
    | Bxor -> Array.map2 (g_xor ctx) ba bb
    | Bshl -> bits_shift ctx ~left:true ~fill:(const_lit ctx false) ba bb
    | Blshr -> bits_shift ctx ~left:false ~fill:(const_lit ctx false) ba bb
    | Bashr -> bits_shift ctx ~left:false ~fill:ba.(w - 1) ba bb)
  | Ite (c, a, b) ->
    let lc = lit_of_bool ctx c in
    bits_mux ctx lc (bits_of ctx a) (bits_of ctx b)
  | Extract (hi, lo, a) ->
    let ba = bits_of ctx a in
    Array.sub ba lo (hi - lo + 1)
  | Concat (a, b) -> Array.append (bits_of ctx b) (bits_of ctx a)
  | Zext (_, a) ->
    let ba = bits_of ctx a in
    Array.init w (fun i ->
        if i < Array.length ba then ba.(i) else const_lit ctx false)
  | Sext (_, a) ->
    let ba = bits_of ctx a in
    let msb = ba.(Array.length ba - 1) in
    Array.init w (fun i -> if i < Array.length ba then ba.(i) else msb)
  | True | False | Bool_var _ | Not _ | And _ | Or _ | Eq _ | Bv_cmp _ ->
    invalid_arg "Bitblast.bits_of: boolean term"

and lit_of_bool ctx (t : Term.t) : int =
  match Hashtbl.find_opt ctx.bool_cache t.id with
  | Some l -> l
  | None ->
    let l = compute_bool ctx t in
    Hashtbl.add ctx.bool_cache t.id l;
    l

and compute_bool ctx (t : Term.t) : int =
  match t.node with
  | True -> ctx.true_lit
  | False -> false_lit ctx
  | Bool_var name -> (
    match Hashtbl.find_opt ctx.bool_vars name with
    | Some l -> l
    | None ->
      let l = fresh ctx in
      Hashtbl.add ctx.bool_vars name l;
      l)
  | Not a -> Sat.lit_not (lit_of_bool ctx a)
  | And ts -> g_and_list ctx (List.map (lit_of_bool ctx) (Array.to_list ts))
  | Or ts -> g_or_list ctx (List.map (lit_of_bool ctx) (Array.to_list ts))
  | Eq (a, b) ->
    if Sort.is_bool (Term.sort a) then
      g_iff ctx (lit_of_bool ctx a) (lit_of_bool ctx b)
    else bits_eq ctx (bits_of ctx a) (bits_of ctx b)
  | Ite (c, a, b) ->
    g_ite ctx (lit_of_bool ctx c) (lit_of_bool ctx a) (lit_of_bool ctx b)
  | Bv_cmp (op, a, b) -> (
    let ba = bits_of ctx a and bb = bits_of ctx b in
    match op with
    | Ult -> bits_ult ctx ba bb
    | Ule -> Sat.lit_not (bits_ult ctx bb ba)
    | Slt -> bits_slt ctx ba bb
    | Sle -> Sat.lit_not (bits_slt ctx bb ba))
  | Bv_const _ | Bv_var _ | Bv_bin _ | Bv_not _ | Bv_neg _ | Extract _
  | Concat _ | Zext _ | Sext _ ->
    invalid_arg "Bitblast.lit_of_bool: bit-vector term"

(* [?tag] labels the one root clause for unsat-core extraction (the
   Tseitin clauses are definitional and untagged on purpose: a core over
   tags means a core over asserted constraints). *)
let assert_term ?tag ctx t =
  let l = lit_of_bool ctx t in
  Sat.add_clause ?tag ctx.sat [ l ]

(* Scoped assertion: the constraint binds only while [selector] is
   assumed true, so a solver context can retire it by dropping (or
   permanently negating) the selector. Only the root clause is guarded:
   the Tseitin clauses produced while translating [t] merely define
   fresh gate literals, are valid unconditionally, and therefore stay
   shared across scopes via the per-term caches. *)
let assert_under ?tag ctx ~selector t =
  let l = lit_of_bool ctx t in
  Sat.add_clause ?tag ctx.sat [ Sat.lit_not selector; l ]

(* {1 Model extraction (after a Sat result)} *)

let lit_model_value ctx l =
  let v = Sat.value ctx.sat (Sat.lit_var l) in
  if Sat.lit_is_pos l then v else not v

let extract_model ctx : Model.t =
  let m = Model.create () in
  Hashtbl.iter
    (fun name bits ->
      let w = Array.length bits in
      let v = ref (B.zero w) in
      Array.iteri
        (fun i l ->
          if lit_model_value ctx l then
            v := B.logor !v (B.shl (B.one w) i))
        bits;
      Model.set_bv m name !v)
    ctx.bv_vars;
  Hashtbl.iter
    (fun name l -> Model.set_bool m name (lit_model_value ctx l))
    ctx.bool_vars;
  m
