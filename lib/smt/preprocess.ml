(* Word-level preprocessing applied to a constraint conjunction before
   bit-blasting (STP-style). All passes preserve satisfiability, and
   every eliminated variable carries a completion binding so a model of
   the residual formula extends to a model of the original one. The
   solver re-validates the completed model against the original
   constraints, so a preprocessing bug can never smuggle in a bogus
   [Sat]; the [Unsat] direction is argued pass by pass below.

   Passes, iterated to fixpoint:

   - Conjunct splitting (equivalence-preserving): nested conjunctions
     and negated disjunctions are flattened; [concat hi lo = c] splits
     into per-part equalities. Splitting exposes more work to the later
     passes and lets [Term.and_]'s dedup merge more conjuncts.

   - Equality substitution / constant propagation: a conjunct [x = t]
     with [x] a variable not occurring in [t] is dropped and [t] is
     substituted for [x] everywhere else (one variable at a time —
     simultaneous selection would be unsound for cyclic definition sets
     like [x = y /\ y = x+1]). Only conjuncts whose (memoised) free
     variables include [x] are rewritten; the others come through
     physically unchanged. When [t] is a constant this is constant
     propagation, and the smart constructors fold downstream. The
     rewritten formula is equisatisfiable: any model of it extends to
     the original by setting [x := eval t].

   - Unconstrained-variable elimination: a variable occurring in exactly
     one conjunct whose shape is satisfiable for *every* value of the
     other side can be dropped: [x <> t] (pick [x := t + 1], sound for
     any width since t+1 <> t mod 2^w), [x <= t] (pick [x := 0]) and
     [t <= x] (pick [x := t]).

   - Slicing: the residual conjuncts split into connected components by
     shared variables. A component all of whose conjuncts already hold
     under the all-defaults model (every variable zero / false) is
     dropped and its variables are pinned to the defaults: any model of
     the remaining components extends by exactly those defaults, and
     conversely dropping conjuncts can only relax the formula. This is
     the sound satisfiability analogue of cone-of-influence slicing:
     components disconnected from any conjunct that actually constrains
     its variables never reach the SAT solver. *)

module B = Vdp_bitvec.Bitvec
module T = Term

type binding =
  | Def of string * Term.t  (** the variable takes [t]'s value *)
  | Diseq of string * Term.t
      (** the variable takes [t]'s value + 1 (bv) / negation (bool) *)

(* One entry per elimination, oldest first, carrying enough context for
   an independent replay: the certificate checker ([Vdp_cert]) re-runs
   every stage from the original conjunction, re-checking each stage's
   side conditions (the dropped definition really is a conjunct, the
   eliminated variable really occurs nowhere else, sliced components
   really are disjoint) with its own pattern matching, and then demands
   the replayed residual equals the one that was blasted. *)
type trace_step =
  | T_def of string * Term.t * Term.t
      (** [T_def (x, rhs, c)]: conjunct [c] defined [x = rhs]; [c] was
          dropped and [rhs] substituted for [x] everywhere else *)
  | T_unconstrained of binding * Term.t
      (** the conjunct was the only one mentioning the bound variable
          and is satisfiable for every value of its other side *)
  | T_slice of Term.t list
      (** connected components, already satisfied by the all-defaults
          model, dropped wholesale *)

type result = {
  conjuncts : Term.t list;  (** residual conjuncts, preprocessed *)
  key : Term.t;  (** [Term.and_ conjuncts] — cache / refutation key *)
  bindings : binding list;  (** newest elimination first *)
  trace : trace_step list;  (** elimination replay script, oldest first *)
  eliminated : int;  (** equality + unconstrained eliminations *)
  sliced : int;  (** conjuncts dropped by component slicing *)
}

let split_list terms =
  match (T.and_ terms).T.node with
  | T.And ts -> Array.to_list ts
  | T.True -> []
  | _ -> ( match terms with [ t ] -> [ t ] | _ -> [ T.and_ terms ])

let identity terms =
  let key = T.and_ terms in
  let conjuncts = split_list terms in
  { conjuncts; key; bindings = []; trace = []; eliminated = 0; sliced = 0 }

(* {1 Conjunct splitting} *)

let is_const (t : T.t) = match t.T.node with T.Bv_const _ -> true | _ -> false

let rec split_conjunct (t : T.t) acc =
  match t.T.node with
  | T.True -> acc
  | T.And ts -> Array.fold_left (fun acc c -> split_conjunct c acc) acc ts
  | T.Not inner -> (
    match inner.T.node with
    | T.Or ts ->
      Array.fold_left (fun acc c -> split_conjunct (T.not_ c) acc) acc ts
    | _ -> t :: acc)
  | T.Eq (a, b) -> split_eq t a b acc
  | _ -> t :: acc

and split_eq orig a b acc =
  (* [concat hi lo = c]  <->  [hi = c_hi /\ lo = c_lo]; the extracts on
     the constant side fold immediately. *)
  let split_concat hi lo c acc =
    let w = T.width c and wlo = T.width lo in
    split_conjunct
      (T.eq hi (T.extract ~hi:(w - 1) ~lo:wlo c))
      (split_conjunct (T.eq lo (T.extract ~hi:(wlo - 1) ~lo:0 c)) acc)
  in
  match (a.T.node, b.T.node) with
  | T.Concat (hi, lo), _ when is_const b -> split_concat hi lo b acc
  | _, T.Concat (hi, lo) when is_const a -> split_concat hi lo a acc
  | T.Concat (h1, l1), T.Concat (h2, l2) when T.width l1 = T.width l2 ->
    split_conjunct (T.eq h1 h2) (split_conjunct (T.eq l1 l2) acc)
  | _ -> orig :: acc

let resplit conjs = List.fold_left (fun acc t -> split_conjunct t acc) [] conjs

(* {1 Variable occurrence bookkeeping} *)

(* Free-variable names per term, memoised on the hash-consed id: the
   occurrence bookkeeping below asks for the same conjunct's variables
   several times per round, and the incremental solver re-presents the
   same (shared) conjuncts across thousands of queries. Entries are
   permanent, like the hash-cons table itself. One table per domain:
   pool domains preprocess concurrently (Step-2 checks, Step-1 loop
   proofs), and a [Hashtbl] must not be shared between domains. *)
let names_memo : (int, string list) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4096)

let var_names (t : T.t) =
  let memo = Domain.DLS.get names_memo in
  match Hashtbl.find_opt memo t.T.id with
  | Some ns -> ns
  | None ->
    let ns = List.map fst (T.free_vars t) in
    Hashtbl.add memo t.T.id ns;
    ns

let occurs name t = List.mem name (var_names t)

(* How many conjuncts mention each variable (distinct per conjunct). *)
let occurrence_counts conjs =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun c ->
      List.iter
        (fun n ->
          Hashtbl.replace counts n (1 + Option.value ~default:0 (Hashtbl.find_opt counts n)))
        (var_names c))
    conjs;
  counts

(* {1 Equality substitution} *)

let as_var (t : T.t) =
  match t.T.node with
  | T.Bv_var (n, _) | T.Bool_var n -> Some n
  | _ -> None

(* [Some (name, rhs)] if the conjunct defines a variable. *)
let as_definition (c : T.t) =
  match c.T.node with
  | T.Bool_var n -> Some (n, T.tru)
  | T.Not a -> (
    match a.T.node with T.Bool_var n -> Some (n, T.fls) | _ -> None)
  | T.Eq (a, b) -> (
    match (as_var a, as_var b) with
    | Some n, _ when not (occurs n b) -> Some (n, b)
    | _, Some n when not (occurs n a) -> Some (n, a)
    | _ -> None)
  | _ -> None

(* {1 Unconstrained-variable elimination} *)

(* [Some binding] if dropping [c] is sound given [c] is the only
   conjunct mentioning the bound variable. *)
let as_unconstrained counts (c : T.t) =
  let single n = Hashtbl.find_opt counts n = Some 1 in
  match c.T.node with
  | T.Not a -> (
    match a.T.node with
    | T.Eq (x, t) -> (
      match (as_var x, as_var t) with
      | Some n, _ when single n && not (occurs n t) -> Some (Diseq (n, t))
      | _, Some n when single n && not (occurs n x) -> Some (Diseq (n, x))
      | _ -> None)
    | _ -> None)
  | T.Bv_cmp (T.Ule, x, t) -> (
    match as_var x with
    | Some n when single n && not (occurs n t) ->
      Some (Def (n, T.bv (B.zero (T.width x))))
    | _ -> (
      match as_var t with
      | Some n when single n && not (occurs n x) -> Some (Def (n, x))
      | _ -> None))
  | _ -> None

(* {1 Component slicing} *)

let slice conjs =
  let arr = Array.of_list conjs in
  let n = Array.length arr in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  let owner = Hashtbl.create 64 in
  Array.iteri
    (fun i c ->
      List.iter
        (fun name ->
          match Hashtbl.find_opt owner name with
          | Some j -> union i j
          | None -> Hashtbl.add owner name i)
        (var_names c))
    arr;
  (* A component is droppable iff every conjunct in it holds under the
     all-defaults model (zero / false everywhere). *)
  let defaults = Model.create () in
  let droppable = Hashtbl.create 8 in
  Array.iteri
    (fun i c ->
      let r = find i in
      let ok =
        Option.value ~default:true (Hashtbl.find_opt droppable r)
        && Eval.eval_bool defaults c
      in
      Hashtbl.replace droppable r ok)
    arr;
  let kept = ref [] and dropped = ref [] and bindings = ref [] in
  Array.iteri
    (fun i c ->
      if Hashtbl.find droppable (find i) then begin
        dropped := c :: !dropped;
        List.iter
          (fun (name, sort) ->
            let dflt =
              if Sort.is_bool sort then T.fls
              else T.bv (B.zero (Sort.width sort))
            in
            bindings := Def (name, dflt) :: !bindings)
          (T.free_vars c)
      end
      else kept := c :: !kept)
    arr;
  (List.rev !kept, List.rev !dropped, !bindings)

(* {1 The driver} *)

let max_rounds = 10_000

let run terms : result =
  let conjs = ref (resplit (split_list terms)) in
  let bindings = ref [] in
  let trace = ref [] in
  let eliminated = ref 0 in
  let contradiction () = List.exists T.is_false !conjs in
  (* Eliminate one definition at a time until none (or a contradiction)
     remains. *)
  let rounds = ref 0 in
  let changed = ref true in
  while !changed && not (contradiction ()) && !rounds < max_rounds do
    incr rounds;
    changed := false;
    (* Equality substitution. *)
    let rec pick_def seen = function
      | [] -> None
      | c :: rest -> (
        match as_definition c with
        | Some (n, rhs) -> Some (n, rhs, c, List.rev_append seen rest)
        | None -> pick_def (c :: seen) rest)
    in
    (match pick_def [] !conjs with
    | Some (n, rhs, c, rest) ->
      (* Only the conjuncts that mention [n] change; the rest are kept
         as they are (they are already split, so [resplit] passes them
         through). One memo serves the whole round: the rewritten
         conjuncts share subterms. *)
      let memo = Hashtbl.create 64 in
      let subst v _ = if String.equal v n then Some rhs else None in
      let rewrite c = if occurs n c then T.substitute_vars ~memo subst c else c in
      conjs := resplit (List.map rewrite rest);
      bindings := Def (n, rhs) :: !bindings;
      trace := T_def (n, rhs, c) :: !trace;
      incr eliminated;
      changed := true
    | None ->
      (* Unconstrained elimination: no definitions left, so occurrence
         counts are stable within this round. *)
      let counts = occurrence_counts !conjs in
      let rec drop_unconstrained = function
        | [] -> []
        | c :: rest -> (
          match as_unconstrained counts c with
          | Some b ->
            (* Invalidate the dropped conjunct's variables so two
               conjuncts sharing a variable cannot both be dropped in
               one sweep on a stale count. *)
            List.iter (fun v -> Hashtbl.replace counts v max_int) (var_names c);
            bindings := b :: !bindings;
            trace := T_unconstrained (b, c) :: !trace;
            incr eliminated;
            changed := true;
            drop_unconstrained rest
          | None -> c :: drop_unconstrained rest)
      in
      conjs := drop_unconstrained !conjs)
  done;
  if contradiction () then
    { conjuncts = [ T.fls ]; key = T.fls; bindings = !bindings;
      trace = List.rev !trace; eliminated = !eliminated; sliced = 0 }
  else begin
    let kept, dropped, slice_bindings = slice !conjs in
    bindings := slice_bindings @ !bindings;
    if dropped <> [] then trace := T_slice dropped :: !trace;
    let key = T.and_ kept in
    let conjuncts =
      match key.T.node with
      | T.And ts -> Array.to_list ts
      | T.True -> []
      | _ -> [ key ]
    in
    { conjuncts; key; bindings = !bindings; trace = List.rev !trace;
      eliminated = !eliminated; sliced = List.length dropped }
  end

(* {1 Model completion}

   Bindings are recorded newest elimination first, and a binding's
   right-hand side can only mention variables that were still live when
   it was recorded — i.e. variables eliminated *later* (earlier in the
   list) or surviving into the residual formula. Evaluating newest
   first therefore sees every dependency already pinned. *)

let complete res (m : Model.t) : Model.t =
  let m = Model.copy m in
  List.iter
    (fun b ->
      match b with
      | Def (name, t) ->
        if Sort.is_bool (T.sort t) then
          Model.set_bool m name (Eval.eval_bool m t)
        else Model.set_bv m name (Eval.eval_bv m t)
      | Diseq (name, t) ->
        if Sort.is_bool (T.sort t) then
          Model.set_bool m name (not (Eval.eval_bool m t))
        else
          let v = Eval.eval_bv m t in
          Model.set_bv m name (B.add v (B.one (B.width v))))
    res.bindings;
  m
