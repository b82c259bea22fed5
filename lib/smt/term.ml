module B = Vdp_bitvec.Bitvec

type bvbin =
  | Badd | Bsub | Bmul | Budiv | Burem | Bsdiv | Bsrem
  | Band | Bor | Bxor | Bshl | Blshr | Bashr

type cmp = Ult | Ule | Slt | Sle

type node =
  | True
  | False
  | Bool_var of string
  | Not of t
  | And of t array
  | Or of t array
  | Eq of t * t
  | Ite of t * t * t
  | Bv_const of B.t
  | Bv_var of string * int
  | Bv_bin of bvbin * t * t
  | Bv_not of t
  | Bv_neg of t
  | Bv_cmp of cmp * t * t
  | Extract of int * int * t
  | Concat of t * t
  | Zext of int * t
  | Sext of int * t

and t = { id : int; node : node; sort : Sort.t }

let sort t = t.sort
let width t = Sort.width t.sort
let equal a b = a == b
let hash t = t.id
let compare a b = Stdlib.compare a.id b.id

(* {1 Hash-consing} *)

module Node_key = struct
  type nonrec t = node

  let equal n1 n2 =
    match (n1, n2) with
    | True, True | False, False -> true
    | Bool_var s1, Bool_var s2 -> String.equal s1 s2
    | Not a, Not b | Bv_not a, Bv_not b | Bv_neg a, Bv_neg b -> a == b
    | And a, And b | Or a, Or b ->
      Array.length a = Array.length b && Array.for_all2 ( == ) a b
    | Eq (a1, a2), Eq (b1, b2) | Concat (a1, a2), Concat (b1, b2) ->
      a1 == b1 && a2 == b2
    | Ite (a1, a2, a3), Ite (b1, b2, b3) -> a1 == b1 && a2 == b2 && a3 == b3
    | Bv_const v1, Bv_const v2 -> B.equal v1 v2
    | Bv_var (s1, w1), Bv_var (s2, w2) -> w1 = w2 && String.equal s1 s2
    | Bv_bin (o1, a1, a2), Bv_bin (o2, b1, b2) ->
      o1 = o2 && a1 == b1 && a2 == b2
    | Bv_cmp (o1, a1, a2), Bv_cmp (o2, b1, b2) ->
      o1 = o2 && a1 == b1 && a2 == b2
    | Extract (h1, l1, a), Extract (h2, l2, b) -> h1 = h2 && l1 = l2 && a == b
    | Zext (w1, a), Zext (w2, b) | Sext (w1, a), Sext (w2, b) ->
      w1 = w2 && a == b
    | ( ( True | False | Bool_var _ | Not _ | And _ | Or _ | Eq _ | Ite _
        | Bv_const _ | Bv_var _ | Bv_bin _ | Bv_not _ | Bv_neg _ | Bv_cmp _
        | Extract _ | Concat _ | Zext _ | Sext _ ),
        _ ) ->
      false

  let hash = function
    | True -> 1
    | False -> 2
    | Bool_var s -> 3 + (Hashtbl.hash s * 7)
    | Not a -> 5 + (a.id * 31)
    | And ts -> Array.fold_left (fun h t -> (h * 31) + t.id) 7 ts
    | Or ts -> Array.fold_left (fun h t -> (h * 31) + t.id) 11 ts
    | Eq (a, b) -> 13 + (a.id * 31) + (b.id * 17)
    | Ite (c, a, b) -> 17 + (c.id * 31) + (a.id * 17) + (b.id * 7)
    | Bv_const v -> 19 + B.hash v
    | Bv_var (s, w) -> 23 + (Hashtbl.hash s * 7) + w
    | Bv_bin (op, a, b) ->
      29 + (Hashtbl.hash op * 5) + (a.id * 31) + (b.id * 17)
    | Bv_not a -> 31 + (a.id * 31)
    | Bv_neg a -> 37 + (a.id * 31)
    | Bv_cmp (op, a, b) ->
      41 + (Hashtbl.hash op * 5) + (a.id * 31) + (b.id * 17)
    | Extract (hi, lo, a) -> 43 + (hi * 131) + (lo * 31) + (a.id * 17)
    | Concat (a, b) -> 47 + (a.id * 31) + (b.id * 17)
    | Zext (w, a) -> 53 + (w * 31) + (a.id * 17)
    | Sext (w, a) -> 59 + (w * 31) + (a.id * 17)
end

module Tbl = Hashtbl.Make (Node_key)

(* The interning table is sharded by node hash so that concurrent
   domains contend only when they intern structurally colliding nodes,
   not on one global lock. Ids come from an atomic counter; they are
   dense but not insertion-ordered under parallelism, which is fine —
   everything downstream needs ids only as stable per-process keys and
   as an arbitrary-but-fixed total order ([eq] canonicalisation).

   Sequential runs skip the mutexes entirely ([Par.active] is one
   atomic load), so single-domain verification pays ~zero overhead.

   Each shard's [Tbl] picks a bucket from the low bits of the hash, so
   the shard must not be picked from those same bits: every node of a
   shard would then land in 1/[nshards] of its buckets, and lookups
   would walk chains hundreds of entries long (cache misses each, once
   the tables are large). [shard_of] takes the top bits of a
   multiplicative scramble instead. *)

let shard_bits = 8
let nshards = 1 lsl shard_bits

type shard = { tbl : t Tbl.t; lock : Mutex.t }

let shards =
  Array.init nshards (fun _ ->
      { tbl = Tbl.create 1_024; lock = Mutex.create () })

let shard_of h = shards.(((h * 0x1E3779B97F4A7C15) lsr 40) land (nshards - 1))

let next_id = Atomic.make 0

let intern shard node sort =
  match Tbl.find_opt shard.tbl node with
  | Some t -> t
  | None ->
    let t = { id = Atomic.fetch_and_add next_id 1; node; sort } in
    Tbl.add shard.tbl node t;
    t

let mk node sort =
  let shard = shard_of (Node_key.hash node) in
  if Par.active () then begin
    Mutex.lock shard.lock;
    match intern shard node sort with
    | t -> Mutex.unlock shard.lock; t
    | exception e -> Mutex.unlock shard.lock; raise e
  end
  else intern shard node sort

(* {1 Basic constructors} *)

let tru = mk True Sort.Bool
let fls = mk False Sort.Bool
let bool_const b = if b then tru else fls
let bool_var s = mk (Bool_var s) Sort.Bool
let bv v = mk (Bv_const v) (Sort.Bv (B.width v))
let bv_int ~width n = bv (B.of_int ~width n)
let var s w = mk (Bv_var (s, w)) (Sort.Bv w)
let is_true t = t == tru
let is_false t = t == fls

let const_value t =
  match t.node with Bv_const v -> Some v | _ -> None

let check_same_width a b ctx =
  if not (Sort.equal a.sort b.sort) then
    invalid_arg (Printf.sprintf "Term.%s: sort mismatch" ctx)

(* {1 Boolean layer} *)

let not_ t =
  match t.node with
  | True -> fls
  | False -> tru
  | Not a -> a
  | _ -> mk (Not t) Sort.Bool

(* Flatten, deduplicate, short-circuit. [neutral] is the identity element,
   [absorbing] annihilates. *)
let assoc_bool ~neutral ~absorbing ~wrap ts =
  let module S = Set.Make (struct
    type nonrec t = t

    let compare = compare
  end) in
  let exception Absorbed in
  let rec collect acc t =
    if t == neutral then acc
    else if t == absorbing then raise Absorbed
    else
      match (t.node, wrap [||] = And [||]) with
      | And inner, true | Or inner, false ->
        Array.fold_left collect acc inner
      | _ -> S.add t acc
  in
  try
    let set = List.fold_left collect S.empty ts in
    (* x and (not x) together decide the connective. *)
    let contradicts = S.exists (fun t -> S.mem (not_ t) set) set in
    if contradicts then absorbing
    else
      match S.elements set with
      | [] -> neutral
      | [ t ] -> t
      | elts -> mk (wrap (Array.of_list elts)) Sort.Bool
  with Absorbed -> absorbing

let and_ ts = assoc_bool ~neutral:tru ~absorbing:fls ~wrap:(fun a -> And a) ts
let or_ ts = assoc_bool ~neutral:fls ~absorbing:tru ~wrap:(fun a -> Or a) ts
let and2 a b = and_ [ a; b ]
let or2 a b = or_ [ a; b ]
let implies a b = or2 (not_ a) b

(* {1 Bit-vector layer} *)

let binop_fold op a b =
  match op with
  | Badd -> B.add a b
  | Bsub -> B.sub a b
  | Bmul -> B.mul a b
  | Budiv -> B.udiv a b
  | Burem -> B.urem a b
  | Bsdiv -> B.sdiv a b
  | Bsrem -> B.srem a b
  | Band -> B.logand a b
  | Bor -> B.logor a b
  | Bxor -> B.logxor a b
  | Bshl -> B.shl_bv a b
  | Blshr -> B.lshr_bv a b
  | Bashr -> B.ashr_bv a b

let cmp_fold op a b =
  match op with
  | Ult -> B.ult a b
  | Ule -> B.ule a b
  | Slt -> B.slt a b
  | Sle -> B.sle a b

let rec bnot t =
  match t.node with
  | Bv_const v -> bv (B.lognot v)
  | Bv_not a -> a
  | _ -> mk (Bv_not t) t.sort

and bneg t =
  match t.node with
  | Bv_const v -> bv (B.neg v)
  | Bv_neg a -> a
  | _ -> mk (Bv_neg t) t.sort

and binop op a b =
  check_same_width a b "binop";
  let w = width a in
  match (a.node, b.node) with
  | Bv_const va, Bv_const vb -> bv (binop_fold op va vb)
  | _ ->
    let zero_a = (match a.node with Bv_const v -> B.is_zero v | _ -> false) in
    let zero_b = (match b.node with Bv_const v -> B.is_zero v | _ -> false) in
    let ones_b = (match b.node with Bv_const v -> B.is_ones v | _ -> false) in
    let one_b = (match b.node with Bv_const v -> B.is_one v | _ -> false) in
    (match op with
    | Badd when zero_a -> b
    | Badd when zero_b -> a
    | Bsub when zero_b -> a
    | Bsub when equal a b -> bv (B.zero w)
    | Bsub when zero_a -> bneg b
    | Bmul when zero_a || zero_b -> bv (B.zero w)
    | Bmul when one_b -> a
    | Bmul when (match a.node with Bv_const v -> B.is_one v | _ -> false) -> b
    | Band when zero_a || zero_b -> bv (B.zero w)
    | Band when ones_b -> a
    | Band when (match a.node with Bv_const v -> B.is_ones v | _ -> false) -> b
    | Band when equal a b -> a
    | Bor when zero_b -> a
    | Bor when zero_a -> b
    | Bor when equal a b -> a
    | Bor when ones_b -> bv (B.ones w)
    | Bxor when zero_b -> a
    | Bxor when zero_a -> b
    | Bxor when equal a b -> bv (B.zero w)
    | (Bshl | Blshr | Bashr) when zero_b -> a
    | (Bshl | Blshr) when zero_a -> bv (B.zero w)
    | _ -> mk (Bv_bin (op, a, b)) a.sort)

let add = binop Badd
let sub = binop Bsub
let mul = binop Bmul
let udiv = binop Budiv
let urem = binop Burem
let sdiv = binop Bsdiv
let srem = binop Bsrem
let band = binop Band
let bor = binop Bor
let bxor = binop Bxor
let shl = binop Bshl
let lshr = binop Blshr
let ashr = binop Bashr

let bv_cmp op a b =
  check_same_width a b "cmp";
  match (a.node, b.node) with
  | Bv_const va, Bv_const vb -> bool_const (cmp_fold op va vb)
  | _ when equal a b -> (
    match op with Ult | Slt -> fls | Ule | Sle -> tru)
  | _, Bv_const vb when op = Ult && B.is_zero vb -> fls
  | Bv_const va, _ when op = Ule && B.is_zero va -> tru
  | _, Bv_const vb when op = Ule && B.is_ones vb -> tru
  | Bv_const va, _ when op = Ult && B.is_ones va -> fls
  | _ -> mk (Bv_cmp (op, a, b)) Sort.Bool

let ult = bv_cmp Ult
let ule = bv_cmp Ule
let slt = bv_cmp Slt
let sle = bv_cmp Sle
let ugt a b = ult b a
let uge a b = ule b a

let rec eq a b =
  if not (Sort.equal a.sort b.sort) then invalid_arg "Term.eq: sort mismatch";
  if equal a b then tru
  else
    match (a.node, b.node) with
    | Bv_const va, Bv_const vb -> bool_const (B.equal va vb)
    | True, _ -> b
    | _, True -> a
    | False, _ -> not_ b
    | _, False -> not_ a
    (* (ite c a b) = k simplifies when the branches are constants. *)
    | Ite (c, x, y), Bv_const k | Bv_const k, Ite (c, x, y) -> (
      match (x.node, y.node) with
      | Bv_const vx, Bv_const vy -> (
        match (B.equal vx k, B.equal vy k) with
        | true, true -> tru
        | true, false -> c
        | false, true -> not_ c
        | false, false -> fls)
      | _ ->
        if a.id <= b.id then mk (Eq (a, b)) Sort.Bool
        else mk (Eq (b, a)) Sort.Bool)
    (* zext x = 0 iff x = 0, etc.: strip matching extensions. *)
    | Zext (_, x), Zext (_, y) when width x = width y -> eq x y
    | Zext (_, x), Bv_const v | Bv_const v, Zext (_, x) ->
      let wx = width x in
      let high = B.extract ~hi:B.(width v) ~lo:wx (B.concat (B.zero 1) v) in
      if B.is_zero high then eq x (bv (B.extract ~hi:(wx - 1) ~lo:0 v))
      else fls
    | _ -> if a.id <= b.id then mk (Eq (a, b)) Sort.Bool
           else mk (Eq (b, a)) Sort.Bool

let neq a b = not_ (eq a b)

let ite c a b =
  if not (Sort.equal a.sort b.sort) then invalid_arg "Term.ite: sort mismatch";
  match c.node with
  | True -> a
  | False -> b
  | _ ->
    if equal a b then a
    else if Sort.is_bool a.sort then or2 (and2 c a) (and2 (not_ c) b)
    else mk (Ite (c, a, b)) a.sort

let rec extract ~hi ~lo t =
  let w = width t in
  if lo < 0 || hi < lo || hi >= w then invalid_arg "Term.extract: bad range";
  if lo = 0 && hi = w - 1 then t
  else
    match t.node with
    | Bv_const v -> bv (B.extract ~hi ~lo v)
    | Extract (_, lo', inner) -> extract ~hi:(hi + lo') ~lo:(lo + lo') inner
    | Concat (a, b) ->
      let wb = width b in
      if hi < wb then extract ~hi ~lo b
      else if lo >= wb then extract ~hi:(hi - wb) ~lo:(lo - wb) a
      else mk (Extract (hi, lo, t)) (Sort.Bv (hi - lo + 1))
    | Zext (_, inner) ->
      let wi = width inner in
      if hi < wi then extract ~hi ~lo inner
      else if lo >= wi then bv (B.zero (hi - lo + 1))
      else mk (Extract (hi, lo, t)) (Sort.Bv (hi - lo + 1))
    | _ -> mk (Extract (hi, lo, t)) (Sort.Bv (hi - lo + 1))

let concat a b =
  match (a.node, b.node) with
  | Bv_const va, Bv_const vb -> bv (B.concat va vb)
  | _ ->
    let w = width a + width b in
    mk (Concat (a, b)) (Sort.Bv w)

let zext w t =
  let wt = width t in
  if w < wt then invalid_arg "Term.zext: narrowing";
  if w = wt then t
  else
    match t.node with
    | Bv_const v -> bv (B.zext w v)
    | Zext (_, inner) -> mk (Zext (w, inner)) (Sort.Bv w)
    | _ -> mk (Zext (w, t)) (Sort.Bv w)

let sext w t =
  let wt = width t in
  if w < wt then invalid_arg "Term.sext: narrowing";
  if w = wt then t
  else
    match t.node with
    | Bv_const v -> bv (B.sext w v)
    | _ -> mk (Sext (w, t)) (Sort.Bv w)

(* {1 Traversal} *)

let children t =
  match t.node with
  | True | False | Bool_var _ | Bv_const _ | Bv_var _ -> []
  | Not a | Bv_not a | Bv_neg a | Extract (_, _, a) | Zext (_, a) | Sext (_, a)
    ->
    [ a ]
  | And ts | Or ts -> Array.to_list ts
  | Eq (a, b) | Bv_bin (_, a, b) | Bv_cmp (_, a, b) | Concat (a, b) ->
    [ a; b ]
  | Ite (c, a, b) -> [ c; a; b ]

let fold_subterms f init t =
  let seen = Hashtbl.create 64 in
  let rec go acc t =
    if Hashtbl.mem seen t.id then acc
    else begin
      Hashtbl.add seen t.id ();
      let acc = List.fold_left go acc (children t) in
      f acc t
    end
  in
  go init t

let free_vars t =
  fold_subterms
    (fun acc t ->
      match t.node with
      | Bool_var s -> (s, Sort.Bool) :: acc
      | Bv_var (s, w) -> (s, Sort.Bv w) :: acc
      | _ -> acc)
    [] t

let size t = fold_subterms (fun n _ -> n + 1) 0 t

let rebuild map_child t =
  match t.node with
  | True | False | Bool_var _ | Bv_const _ | Bv_var _ -> t
  | Not a -> not_ (map_child a)
  | And ts -> and_ (List.map map_child (Array.to_list ts))
  | Or ts -> or_ (List.map map_child (Array.to_list ts))
  | Eq (a, b) -> eq (map_child a) (map_child b)
  | Ite (c, a, b) -> ite (map_child c) (map_child a) (map_child b)
  | Bv_bin (op, a, b) -> binop op (map_child a) (map_child b)
  | Bv_not a -> bnot (map_child a)
  | Bv_neg a -> bneg (map_child a)
  | Bv_cmp (op, a, b) -> bv_cmp op (map_child a) (map_child b)
  | Extract (hi, lo, a) -> extract ~hi ~lo (map_child a)
  | Concat (a, b) -> concat (map_child a) (map_child b)
  | Zext (w, a) -> zext w (map_child a)
  | Sext (w, a) -> sext w (map_child a)

let substitute lookup t =
  let memo = Hashtbl.create 64 in
  let rec go t =
    match Hashtbl.find_opt memo t.id with
    | Some t' -> t'
    | None ->
      let t' =
        match t.node with
        | Bool_var s -> (
          match lookup s with
          | Some r ->
            if not (Sort.equal r.sort Sort.Bool) then
              invalid_arg "Term.substitute: sort mismatch";
            r
          | None -> t)
        | Bv_var (s, w) -> (
          match lookup s with
          | Some r ->
            if not (Sort.equal r.sort (Sort.Bv w)) then
              invalid_arg "Term.substitute: sort mismatch";
            r
          | None -> t)
        | _ -> rebuild go t
      in
      Hashtbl.add memo t.id t';
      t'
  in
  go t

let substitute_vars ?memo lookup t =
  let memo = match memo with Some m -> m | None -> Hashtbl.create 64 in
  let rec go t =
    match Hashtbl.find_opt memo t.id with
    | Some t' -> t'
    | None ->
      let t' =
        match t.node with
        | Bool_var s -> (
          match lookup s Sort.Bool with
          | Some r ->
            if not (Sort.equal r.sort Sort.Bool) then
              invalid_arg "Term.substitute_vars: sort mismatch";
            r
          | None -> t)
        | Bv_var (s, w) -> (
          match lookup s (Sort.Bv w) with
          | Some r ->
            if not (Sort.equal r.sort (Sort.Bv w)) then
              invalid_arg "Term.substitute_vars: sort mismatch";
            r
          | None -> t)
        | _ -> rebuild go t
      in
      Hashtbl.add memo t.id t';
      t'
  in
  go t

let rename_vars f t =
  let memo = Hashtbl.create 64 in
  let rec go t =
    match Hashtbl.find_opt memo t.id with
    | Some t' -> t'
    | None ->
      let t' =
        match t.node with
        | Bool_var s -> bool_var (f s)
        | Bv_var (s, w) -> var (f s) w
        | _ -> rebuild go t
      in
      Hashtbl.add memo t.id t';
      t'
  in
  go t

(* {1 Printing} *)

let bvbin_name = function
  | Badd -> "bvadd" | Bsub -> "bvsub" | Bmul -> "bvmul"
  | Budiv -> "bvudiv" | Burem -> "bvurem" | Bsdiv -> "bvsdiv"
  | Bsrem -> "bvsrem" | Band -> "bvand" | Bor -> "bvor" | Bxor -> "bvxor"
  | Bshl -> "bvshl" | Blshr -> "bvlshr" | Bashr -> "bvashr"

let cmp_name = function
  | Ult -> "bvult" | Ule -> "bvule" | Slt -> "bvslt" | Sle -> "bvsle"

let rec pp fmt t =
  match t.node with
  | True -> Format.pp_print_string fmt "true"
  | False -> Format.pp_print_string fmt "false"
  | Bool_var s -> Format.pp_print_string fmt s
  | Not a -> Format.fprintf fmt "(not %a)" pp a
  | And ts -> pp_nary fmt "and" ts
  | Or ts -> pp_nary fmt "or" ts
  | Eq (a, b) -> Format.fprintf fmt "(= %a %a)" pp a pp b
  | Ite (c, a, b) -> Format.fprintf fmt "(ite %a %a %a)" pp c pp a pp b
  | Bv_const v -> Format.pp_print_string fmt (B.to_string_hex v)
  | Bv_var (s, w) -> Format.fprintf fmt "%s:%d" s w
  | Bv_bin (op, a, b) ->
    Format.fprintf fmt "(%s %a %a)" (bvbin_name op) pp a pp b
  | Bv_not a -> Format.fprintf fmt "(bvnot %a)" pp a
  | Bv_neg a -> Format.fprintf fmt "(bvneg %a)" pp a
  | Bv_cmp (op, a, b) ->
    Format.fprintf fmt "(%s %a %a)" (cmp_name op) pp a pp b
  | Extract (hi, lo, a) -> Format.fprintf fmt "%a[%d:%d]" pp a hi lo
  | Concat (a, b) -> Format.fprintf fmt "(concat %a %a)" pp a pp b
  | Zext (w, a) -> Format.fprintf fmt "(zext%d %a)" w pp a
  | Sext (w, a) -> Format.fprintf fmt "(sext%d %a)" w pp a

and pp_nary fmt name ts =
  Format.fprintf fmt "(%s" name;
  Array.iter (fun t -> Format.fprintf fmt " %a" pp t) ts;
  Format.fprintf fmt ")"

let to_string t = Format.asprintf "%a" pp t
