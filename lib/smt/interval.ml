(** Cheap unsigned-interval analysis used to refute constraints without
    bit-blasting.

    Three services:
    - [range t] — conservative unsigned bounds of a bit-vector term
      (widths up to 30 bits; wider terms fall back to the trivial range);
    - [explain t] — [Some] only if the boolean term is definitely
      unsatisfiable, with the atoms that show it; [refute t] is its
      yes/no answer (and also accepts a literal [false]).
      [explain_list]/[refute_list] answer the same for the conjunction
      of a list without building it. Sound, far
      from complete: it intersects the ranges implied by comparison
      atoms that share a common subject term, which is exactly the shape
      produced by composing pipeline segments (e.g. [in < 0 && 0 < 0]
      in the paper's toy example);
    - [env] — the same refutation kept as a persistent running
      environment: [extend env t] adds one conjunct, and [refuted]
      answers exactly what [refute_list] answers on every conjunct the
      environment was extended by. Step-1 symbex keeps one per path and
      tests each fork side against it, instead of rescanning the path. *)

module B = Vdp_bitvec.Bitvec

let max_tracked_width = 30

let full_range w =
  if w > max_tracked_width then None else Some (0, (1 lsl w) - 1)

let rec range (t : Term.t) : (int * int) option =
  let w = Term.width t in
  if w > max_tracked_width then None
  else
    match t.node with
    | Bv_const v -> let n = B.to_int_trunc v in Some (n, n)
    | Zext (_, a) ->
      (match range a with
      | Some r -> Some r
      | None -> full_range w)
    | Extract (hi, 0, a) -> (
      match range a with
      | Some (lo', hi') when hi' < 1 lsl (hi + 1) -> Some (lo', hi')
      | _ -> full_range w)
    | Bv_bin (Badd, a, b) -> (
      match (range a, range b) with
      | Some (la, ha), Some (lb, hb) when ha + hb < 1 lsl w ->
        Some (la + lb, ha + hb)
      | _ -> full_range w)
    | Bv_bin (Bmul, a, b) -> (
      match (range a, range b) with
      | Some (la, ha), Some (lb, hb) when ha * hb < 1 lsl w ->
        Some (la * lb, ha * hb)
      | _ -> full_range w)
    | Bv_bin (Band, a, b) -> (
      let bound t' =
        match range t' with Some (_, h) -> h | None -> (1 lsl w) - 1
      in
      Some (0, min (bound a) (bound b)))
    | Bv_bin (Blshr, a, b) -> (
      match (range a, Term.const_value b) with
      | Some (_, ha), Some k -> Some (0, ha lsr B.to_int_trunc k)
      | _ -> full_range w)
    | Bv_bin (Bshl, a, b) -> (
      match (range a, Term.const_value b) with
      | Some (lo', hi'), Some k ->
        let k = B.to_int_trunc k in
        if k < w && hi' lsl k < 1 lsl w then Some (lo' lsl k, hi' lsl k)
        else full_range w
      | _ -> full_range w)
    | _ -> full_range w

(* Constraint atoms of the shape [cmp subject const] (or symmetric). *)
type bound = { subject : Term.t; lo : int; hi : int }

let atom_bound (t : Term.t) ~(positive : bool) : bound option =
  let mk subject lo hi =
    let w = Term.width subject in
    if w > max_tracked_width then None else Some { subject; lo; hi }
  in
  let max_of t' = (1 lsl Term.width t') - 1 in
  let as_const t' =
    match Term.const_value t' with
    | Some v ->
      let n = B.to_int_trunc v in
      if B.width v <= max_tracked_width then Some n else None
    | None -> None
  in
  match (t.node, positive) with
  | Term.Bv_cmp (op, a, b), _ -> (
    let flip (op : Term.cmp) : Term.cmp =
      (* negation: not (a < b) == b <= a *)
      match op with Ult -> Ule | Ule -> Ult | Slt -> Sle | Sle -> Slt
    in
    let op, a, b = if positive then (op, a, b) else (flip op, b, a) in
    match (op, as_const a, as_const b) with
    | Term.Ult, None, Some n ->
      if n = 0 then mk a 1 0 (* empty *) else mk a 0 (n - 1)
    | Term.Ule, None, Some n -> mk a 0 n
    | Term.Ult, Some n, None -> mk b (n + 1) (max_of b)
    | Term.Ule, Some n, None -> mk b n (max_of b)
    | _ -> None)
  | Term.Eq (a, b), true -> (
    match (as_const a, as_const b) with
    | Some n, None -> mk b n n
    | None, Some n -> mk a n n
    | _ -> None)
  | _ -> None

(* A term whose unsigned range is a single value — syntactic constants
   plus anything the range analysis pins down (masked constants etc.). *)
let point_value t =
  match range t with Some (lo, hi) when lo = hi -> Some lo | _ -> None

(* What one flattened conjunct tells the interval analysis. *)
type fact =
  | F_bound of bound  (** [subject ∈ \[lo, hi\]] *)
  | F_diseq of Term.t * int  (** [subject <> n] *)
  | F_diseq_points  (** a disequality whose two sides are the same value *)
  | F_none

let fact (atom : Term.t) =
  let inner, positive =
    match atom.Term.node with
    | Term.Not inner -> (inner, false)
    | _ -> (atom, true)
  in
  match (inner.Term.node, positive) with
  | Term.Eq (a, b), false when not (Sort.is_bool (Term.sort a)) -> (
    (* Negated equalities cannot be intervals, but they shave the ends
       off one. *)
    if Term.width a > max_tracked_width then F_none
    else
      match (point_value a, point_value b) with
      | Some n, None -> F_diseq (b, n)
      | None, Some n -> F_diseq (a, n)
      | Some n, Some m -> if n = m then F_diseq_points else F_none
      | None, None -> F_none)
  | _ -> (
    match atom_bound inner ~positive with Some b -> F_bound b | None -> F_none)

(* The sound initial range of a subject no atom has bounded yet. *)
let initial_range subject =
  match range subject with Some r -> r | None -> (0, max_int)

(* {1 Refutation explanations}

   [explain] records, per subject, which atoms of the conjunction drove
   the interval empty, in the order they applied. The result is a
   replayable script — not a proof by authority: the independent
   checker in [Vdp_cert] re-derives every step (atom membership in the
   refuted conjunction, the bound each atom implies, the endpoint each
   disequality shaves) with its own pattern matching and range
   analysis, so a bug here yields a rejected certificate, not a wrong
   verdict. *)

type explain_step =
  | X_bound of Term.t * int * int
      (** atom implying [subject ∈ \[lo, hi\]], intersected in order *)
  | X_shave of Term.t * int
      (** disequality atom excluding value [n]; at replay time [n] must
          be the current lower or upper endpoint (or the whole interval) *)

type explanation =
  | Ex_interval of { subject : Term.t; steps : explain_step list }
      (** replaying [steps] against the subject's sound initial range
          yields an empty interval *)
  | Ex_diseq_points of Term.t
      (** a disequality atom whose two sides are the same single value *)

(* [explain_list ts] explains the conjunction of [ts] without building
   it: duplicates and [true] operands cost a repeated or void step, and
   the answer is [Some] exactly when [explain (Term.and_ ts)] is, for
   every [ts] that does not fold to [false]. *)
let explain_list (ts : Term.t list) : explanation option =
  (* subject id -> (subject, lo, hi, applied steps newest first) *)
  let tbl : (int, Term.t * int * int * explain_step list) Hashtbl.t =
    Hashtbl.create 16
  in
  let found = ref None in
  let state_of (subject : Term.t) =
    match Hashtbl.find_opt tbl subject.id with
    | Some (_, lo, hi, steps) -> (lo, hi, steps)
    | None ->
      let lo, hi = initial_range subject in
      (lo, hi, [])
  in
  let emit subject steps =
    if !found = None then
      found := Some (Ex_interval { subject; steps = List.rev steps })
  in
  let note atom { subject; lo; hi } =
    let lo0, hi0, steps = state_of subject in
    let lo' = max lo lo0 and hi' = min hi hi0 in
    let steps = X_bound (atom, lo, hi) :: steps in
    if lo' > hi' then emit subject steps
    else Hashtbl.replace tbl subject.id (subject, lo', hi', steps)
  in
  (* Disequalities are collected and applied after the bounds have
     settled. *)
  let diseqs : (Term.t * Term.t * int) list ref = ref [] in
  (* Conjunctions nest once composite conditions are re-conjoined
     (e.g. [And [And [...]; atom]]); flatten them all. *)
  let rec visit (atom : Term.t) =
    match atom.node with
    | Term.And ts -> Array.iter visit ts
    | _ ->
      if !found = None then begin
        match fact atom with
        | F_bound b -> note atom b
        | F_diseq (subject, n) -> diseqs := (atom, subject, n) :: !diseqs
        | F_diseq_points -> found := Some (Ex_diseq_points atom)
        | F_none -> ()
      end
  in
  List.iter visit ts;
  (* Each diseq can tighten an interval endpoint, which can arm other
     diseqs on the same subject; iterate to a fixpoint (each pass that
     changes anything shrinks some interval, so this terminates). *)
  let changed = ref true in
  while !changed && !found = None do
    changed := false;
    List.iter
      (fun ((atom : Term.t), (subject : Term.t), n) ->
        if !found = None then begin
          let lo, hi, steps = state_of subject in
          if lo = n && hi = n then
            emit subject (X_shave (atom, n) :: steps)
          else if lo = n then begin
            Hashtbl.replace tbl subject.id
              (subject, lo + 1, hi, X_shave (atom, n) :: steps);
            changed := true
          end
          else if hi = n then begin
            Hashtbl.replace tbl subject.id
              (subject, lo, hi - 1, X_shave (atom, n) :: steps);
            changed := true
          end
        end)
      !diseqs
  done;
  !found

let explain (t : Term.t) : explanation option =
  if Term.is_false t then None else explain_list [ t ]

let refute (t : Term.t) = Term.is_false t || explain t <> None

(* [refute_list ts = refute (Term.and_ ts)], interning nothing. *)
let refute_list ts = Term.conj_is_false ts || explain_list ts <> None

(* {1 Running environments}

   An environment holds what [refute_list] would find on the conjuncts
   it was extended by, kept per fact so that one more conjunct costs
   only its own facts:
   - the ids of the flattened atoms, and the ids [x] of every atom
     [Not x], so a complementary pair shows without interning a
     negation ([Term.conj_is_false]'s test);
   - per subject, the interval its bounds allow, shaved of the points
     its disequalities exclude, and those points.

   Shaving as each fact arrives ends where [explain_list]'s fixpoint
   does: both leave the hull of the bounded interval minus the
   excluded points, empty exactly when every point in it is excluded.
   A repeated atom adds nothing, as it adds nothing to [explain_list].
   Environments are persistent: two extensions of one environment
   share it and never see each other's conjuncts. *)

module Ids = Set.Make (Int)
module Subjects = Map.Make (Int)

type env = {
  refuted : bool;
  atoms : Ids.t;
  negated : Ids.t;
  subjects : (int * int * Ids.t) Subjects.t;
      (** subject id -> shaved interval and excluded points *)
}

let empty_env =
  {
    refuted = false;
    atoms = Ids.empty;
    negated = Ids.empty;
    subjects = Subjects.empty;
  }

let refuted env = env.refuted

let rec shave lo hi holes =
  if lo > hi then None
  else if Ids.mem lo holes then shave (lo + 1) hi holes
  else if Ids.mem hi holes then shave lo (hi - 1) holes
  else Some (lo, hi)

let restrict env (subject : Term.t) ~lo ~hi ~hole =
  let lo0, hi0, holes =
    match Subjects.find_opt subject.id env.subjects with
    | Some s -> s
    | None ->
      let lo, hi = initial_range subject in
      (lo, hi, Ids.empty)
  in
  let holes = match hole with Some n -> Ids.add n holes | None -> holes in
  match shave (max lo lo0) (min hi hi0) holes with
  | None -> { env with refuted = true }
  | Some (lo, hi) ->
    { env with subjects = Subjects.add subject.id (lo, hi, holes) env.subjects }

(* [refuted (extend env t)] = [refute_list (t :: ts)] when [env] was
   built from [ts]. *)
let extend env (t : Term.t) =
  let rec add env (atom : Term.t) =
    if env.refuted then env
    else
      match atom.node with
      | Term.And ts -> Array.fold_left add env ts
      | Term.True -> env
      | Term.False -> { env with refuted = true }
      | _ when Ids.mem atom.id env.atoms -> env
      | node -> (
        let complement =
          Ids.mem atom.id env.negated
          || match node with Term.Not x -> Ids.mem x.id env.atoms | _ -> false
        in
        if complement then { env with refuted = true }
        else
          let negated =
            match node with
            | Term.Not x -> Ids.add x.id env.negated
            | _ -> env.negated
          in
          let env = { env with atoms = Ids.add atom.id env.atoms; negated } in
          match fact atom with
          | F_bound { subject; lo; hi } -> restrict env subject ~lo ~hi ~hole:None
          | F_diseq (subject, n) ->
            restrict env subject ~lo:0 ~hi:max_int ~hole:(Some n)
          | F_diseq_points -> { env with refuted = true }
          | F_none -> env)
  in
  add env t

(* {1 Value sets}

   [values env t ~cap] is a sorted list of at most [cap] values that
   contains every value [t] takes on a path whose conjuncts built
   [env], or [None] when no such list is found. At every level of [t]
   the set is cut down to the interval the environment keeps for that
   subterm, so a parse offset [hlen + 2] sees the path's [hlen = v].
   A header length [(b & 0xf) << 2] is the 16 multiples of 4 in 0..60,
   where its [range] is all 61 values. *)

(* The values [lo..hi], when there are at most [cap] of them. *)
let span lo hi ~cap =
  if hi - lo < cap then Some (List.init (hi - lo + 1) (( + ) lo)) else None

let values env (t : Term.t) ~cap =
  let image f l = List.sort_uniq compare (List.map f l) in
  let rec go (t : Term.t) =
    let w = Term.width t in
    if w > max_tracked_width then None
    else
      let mask = (1 lsl w) - 1 in
      let structural =
        match t.node with
        | Bv_const v -> Some [ B.to_int_trunc v ]
        | Zext (_, a) -> go a
        | Bv_bin (Bshl, a, b) -> (
          match Term.const_value b with
          | Some k when B.to_int_trunc k >= w -> Some [ 0 ]
          | Some k ->
            let k = B.to_int_trunc k in
            Option.map (image (fun v -> (v lsl k) land mask)) (go a)
          | None -> None)
        | Bv_bin (Badd, a, b) -> (
          match (go a, go b) with
          | Some la, Some lb ->
            let sum x = List.map (fun y -> (x + y) land mask) lb in
            let sums = image Fun.id (List.concat_map sum la) in
            if List.length sums <= cap then Some sums else None
          | _ -> None)
        | _ -> None
      in
      let set =
        match structural with
        | Some _ -> structural
        | None -> Option.bind (range t) (fun (lo, hi) -> span lo hi ~cap)
      in
      match Subjects.find_opt t.id env.subjects with
      | None -> set
      | Some (lo, hi, holes) ->
        let keep v = lo <= v && v <= hi && not (Ids.mem v holes) in
        Option.map (List.filter keep)
          (match set with Some _ -> set | None -> span lo hi ~cap)
  in
  if env.refuted then Some [] else go t
