(** Cheap unsigned-interval analysis used to refute constraints without
    bit-blasting.

    Two services:
    - [range t] — conservative unsigned bounds of a bit-vector term
      (widths up to 30 bits; wider terms fall back to the trivial range);
    - [explain t] — [Some] only if the boolean term is definitely
      unsatisfiable, with the atoms that show it; [refute t] is its
      yes/no answer (and also accepts a literal [false]). Sound, far
      from complete: it intersects the ranges implied by comparison
      atoms that share a common subject term, which is exactly the shape
      produced by composing pipeline segments (e.g. [in < 0 && 0 < 0]
      in the paper's toy example). *)

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

let explain (t : Term.t) : explanation option =
  if Term.is_false t then None
  else begin
    (* Conjunctions nest once composite conditions are re-conjoined
       (e.g. [And [And [...]; atom]]); flatten them all. *)
    let atoms = ref [] in
    let rec collect (t : Term.t) =
      match t.node with
      | Term.And ts -> Array.iter collect ts
      | _ -> atoms := t :: !atoms
    in
    collect t;
    (* subject id -> (subject, lo, hi, applied steps newest first) *)
    let tbl : (int, Term.t * int * int * explain_step list) Hashtbl.t =
      Hashtbl.create 16
    in
    let found = ref None in
    let state_of (subject : Term.t) =
      match Hashtbl.find_opt tbl subject.id with
      | Some (_, lo, hi, steps) -> (lo, hi, steps)
      | None -> (
        match range subject with
        | Some (lo, hi) -> (lo, hi, [])
        | None -> (0, max_int, []))
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
    (* Negated equalities cannot be intervals, but they shave the ends
       off one: collect them and apply after the bounds have settled. *)
    let diseqs : (Term.t * Term.t * int) list ref = ref [] in
    let note_diseq atom (a : Term.t) (b : Term.t) =
      if Term.width a <= max_tracked_width then
        match (point_value a, point_value b) with
        | Some n, None -> diseqs := (atom, b, n) :: !diseqs
        | None, Some n -> diseqs := (atom, a, n) :: !diseqs
        | Some n, Some m ->
          if n = m && !found = None then found := Some (Ex_diseq_points atom)
        | None, None -> ()
    in
    List.iter
      (fun atom ->
        if !found = None then begin
          let inner, positive =
            match atom.Term.node with
            | Term.Not inner -> (inner, false)
            | _ -> (atom, true)
          in
          match (inner.Term.node, positive) with
          | Term.Eq (a, b), false when not (Sort.is_bool (Term.sort a)) ->
            note_diseq atom a b
          | _ -> (
            match atom_bound inner ~positive with
            | Some b -> note atom b
            | None -> ())
        end)
      !atoms;
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
  end

let refute (t : Term.t) = Term.is_false t || explain t <> None
