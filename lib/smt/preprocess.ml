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

   - Checksum-word elimination: an atom [k = fold (fold s)] (16 bits,
     [k] a nonzero constant, [fold u = (u & 0xffff) + (u >> 16)], [s] a
     32-bit add tree of constants and zero-extended terms at most 16
     bits wide that cannot wrap) holds for some value of any word
     [concat a b] that is one addend of [s]: over the 65 536 values of
     the word, [s] covers every residue mod 0xffff, and two folds of a
     non-wrapping sum give its ones'-complement value. So when [a] and
     [b] occur in no other conjunct, and in this one only as that
     addend of atoms at positive positions (under [And]/[Or] alone, at
     most one of them on any [And] path), every such atom is set to
     [true]. Unsat: the conjunct only got weaker, so the step is a
     relaxation. Sat: the completion solves the word for each atom in
     turn, and keeps the first value under which the original conjunct
     holds; the conjunct's true path holds at most one of the atoms,
     and nothing else on it mentions the word.

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

(* A checksum-word elimination. *)
type relax = {
  conj : Term.t;  (** the conjunct as it stood *)
  relaxed : Term.t;  (** [conj] with every atom set to [true] *)
  atoms : Term.t list;
      (** the checksum equations over the word, each at a positive
          position of [conj], no two on one [And] path *)
  hi : string;  (** the word is [concat hi lo], two 8-bit variables *)
  lo : string;
}

type binding =
  | Def of string * Term.t  (** the variable takes [t]'s value *)
  | Diseq of string * Term.t
      (** the variable takes [t]'s value + 1 (bv) / negation (bool) *)
  | Word of relax
      (** the word takes the first value, among those solving each atom,
          under which the original conjunct holds *)

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
  | T_relax of relax
      (** the conjunct was replaced by its relaxation; the word occurs
          nowhere else *)

type result = {
  conjuncts : Term.t list;  (** residual conjuncts, preprocessed *)
  key : Term.t;  (** [Term.and_ conjuncts] — cache / refutation key *)
  bindings : binding list;  (** newest elimination first *)
  trace : trace_step list;  (** elimination replay script, oldest first *)
  eliminated : int;  (** equality + unconstrained eliminations *)
  sliced : int;  (** conjuncts dropped by component slicing *)
  solved : int;  (** checksum words eliminated *)
}

let split_list terms =
  match (T.and_ terms).T.node with
  | T.And ts -> Array.to_list ts
  | T.True -> []
  | _ -> ( match terms with [ t ] -> [ t ] | _ -> [ T.and_ terms ])

let identity terms =
  let key = T.and_ terms in
  let conjuncts = split_list terms in
  { conjuncts; key; bindings = []; trace = []; eliminated = 0; sliced = 0;
    solved = 0 }

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

(* The all-defaults value of a sort: zero / false. *)
let default_of sort =
  if Sort.is_bool sort then T.fls else T.bv (B.zero (Sort.width sort))

(* {1 Checksum-word elimination} *)

let const_is n (t : T.t) =
  match t.T.node with T.Bv_const v -> B.to_int v = Some n | _ -> false

(* [Some u] if [t] is [fold u = (u & 0xffff) + (u >> 16)] over 32 bits. *)
let unfold (t : T.t) =
  match t.T.node with
  | T.Bv_bin (T.Badd, l, h) -> (
    match (l.T.node, h.T.node) with
    | T.Bv_bin (T.Band, u, m), T.Bv_bin (T.Blshr, u', sh)
      when u == u' && T.width u = 32 && const_is 0xffff m && const_is 16 sh ->
      Some u
    | _ -> None)
  | _ -> None

(* The addends of a 32-bit add tree of constants and zero-extensions of
   terms at most 16 bits wide, if its sum cannot wrap. *)
let addends (s : T.t) =
  let rec go (t : T.t) (acc, top) =
    match t.T.node with
    | T.Bv_bin (T.Badd, l, r) -> Option.bind (go l (acc, top)) (go r)
    | T.Bv_const v -> Option.map (fun n -> (t :: acc, top + n)) (B.to_int v)
    | T.Zext (32, x) when T.width x <= 16 ->
      Some (t :: acc, top + (1 lsl T.width x) - 1)
    | _ -> None
  in
  match go s ([], 0) with
  | Some (ts, top) when top < 1 lsl 32 -> Some ts
  | _ -> None

(* [Some (k, addends)] if [atom] is [k = fold (fold s)] over 16 bits,
   with [k] a nonzero constant and [s] a sum {!addends} accepts. *)
let checksum_atom (atom : T.t) =
  match atom.T.node with
  | T.Eq (a, b) -> (
    let k, e = if is_const a then (a, b) else (b, a) in
    match (k.T.node, e.T.node) with
    | T.Bv_const kv, T.Extract (15, 0, f)
      when T.width k = 16 && not (B.is_zero kv) ->
      Option.bind (Option.bind (unfold f) unfold) addends
      |> Option.map (fun ts -> (B.to_int_exn kv, ts))
    | _ -> None)
  | _ -> None

(* The words [concat a b] ([a], [b] distinct 8-bit variables) that are
   one of the addends [ts] and whose bytes occur in no other. *)
let free_words ts =
  let count = occurrence_counts ts in
  let once n = Hashtbl.find_opt count n = Some 1 in
  List.filter_map
    (fun (t : T.t) ->
      match t.T.node with
      | T.Zext (_, w) -> (
        match w.T.node with
        | T.Concat ({ T.node = T.Bv_var (a, 8); _ }, { T.node = T.Bv_var (b, 8); _ })
          when (not (String.equal a b)) && once a && once b ->
          Some (a, b)
        | _ -> None)
      | _ -> None)
    ts

(* The most atoms of [set] on one [And] path of [c]'s skeleton. *)
let path_weight set (c : T.t) =
  let memo = Hashtbl.create 16 in
  let rec go (t : T.t) =
    match Hashtbl.find_opt memo t.T.id with
    | Some n -> n
    | None ->
      let n =
        match t.T.node with
        | T.And ts -> Array.fold_left (fun n t -> n + go t) 0 ts
        | T.Or ts -> Array.fold_left (fun n t -> max n (go t)) 0 ts
        | _ -> if List.memq t set then 1 else 0
      in
      Hashtbl.add memo t.T.id n;
      n
  in
  go c

(* [c] with every atom of [set] at a positive position set to [true]. *)
let set_true set (c : T.t) =
  let memo = Hashtbl.create 16 in
  let rec go (t : T.t) =
    if List.memq t set then T.tru
    else
      match Hashtbl.find_opt memo t.T.id with
      | Some t' -> t'
      | None ->
        let t' =
          match t.T.node with
          | T.And ts -> T.and_ (List.map go (Array.to_list ts))
          | T.Or ts -> T.or_ (List.map go (Array.to_list ts))
          | _ -> t
        in
        Hashtbl.add memo t.T.id t';
        t'
  in
  go c

(* Typed free variables of an addend, memoised per id and per domain
   like [names_memo]: the atoms of one header share their addends. *)
let vars_memo : (int, (string * Sort.t) list) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let addend_vars (t : T.t) =
  let memo = Domain.DLS.get vars_memo in
  match Hashtbl.find_opt memo t.T.id with
  | Some vs -> vs
  | None ->
    let vs = T.free_vars t in
    Hashtbl.add memo t.T.id vs;
    vs

(* A word [c] could be relaxed on, whatever the other conjuncts, and the
   atoms it relaxes. The relaxed conjunct and the atoms' variables are
   built only for the candidate that is taken. *)
type candidate = {
  word : string * string;
  set : T.t list;
  built : (T.t * (string * Sort.t) list) Lazy.t;
      (** the relaxed conjunct, and the atoms' variables in name order *)
}

(* Every candidate of [c]: the word's bytes occur in [c] only as a free
   word of checksum atoms on its [And]/[Or] skeleton, at most one of
   them per [And] path. Words shared by more atoms come first. *)
let relaxations (c : T.t) =
  let seen = Hashtbl.create 16 in
  let atoms = ref [] and others = ref [] in
  let rec walk (t : T.t) =
    if not (Hashtbl.mem seen t.T.id) then begin
      Hashtbl.add seen t.T.id ();
      match t.T.node with
      | T.And ts | T.Or ts -> Array.iter walk ts
      | _ -> (
        match checksum_atom t with
        | Some (_, ts) -> atoms := (t, ts, free_words ts) :: !atoms
        | None -> others := t :: !others)
    end
  in
  walk c;
  if !atoms = [] then []
  else
    let atoms = List.rev !atoms in
    let other_names = Hashtbl.create 16 in
    List.iter
      (fun t -> List.iter (fun n -> Hashtbl.replace other_names n ()) (var_names t))
      !others;
    let words =
      List.fold_left
        (fun acc (_, _, ws) ->
          List.fold_left (fun acc w -> if List.mem w acc then acc else w :: acc) acc ws)
        [] atoms
    in
    let by_set = Hashtbl.create 4 in
    let candidate (hi, lo) =
      let over = List.filter (fun (t, _, _) -> occurs hi t || occurs lo t) atoms in
      if
        Hashtbl.mem other_names hi || Hashtbl.mem other_names lo
        || not (List.for_all (fun (_, _, ws) -> List.mem (hi, lo) ws) over)
      then None
      else
        let set = List.map (fun (t, _, _) -> t) over in
        let ids = List.map (fun (t : T.t) -> t.T.id) set in
        let shared =
          match Hashtbl.find_opt by_set ids with
          | Some r -> r
          | None ->
            let r =
              if path_weight set c > 1 then None
              else
                Some
                  (lazy
                    ( set_true set c,
                      List.sort_uniq compare
                        (List.concat_map
                           (fun (_, ts, _) -> List.concat_map addend_vars ts)
                           over) ))
            in
            Hashtbl.add by_set ids r;
            r
        in
        Option.map (fun built -> { word = (hi, lo); set; built }) shared
    in
    List.filter_map candidate (List.rev words)
    |> List.stable_sort (fun r r' -> compare (List.length r'.set) (List.length r.set))

(* {!relaxations} per conjunct id, one table per domain like
   [names_memo]. Only conjuncts that could hold a checksum atom reach
   it: an [Eq] must already have the atom's outer shape. *)
let relax_memo : (int, candidate list) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let may_hold_atom (c : T.t) =
  match c.T.node with
  | T.And _ | T.Or _ -> true
  | T.Eq (a, b) -> (
    match (a.T.node, b.T.node) with
    | T.Bv_const _, T.Extract (15, 0, _) | T.Extract (15, 0, _), T.Bv_const _ ->
      T.width a = 16
    | _ -> false)
  | _ -> false

(* [Some (r, pins)] if [c] can be relaxed on a word whose bytes occur in
   no other conjunct; [pins] bind to zero the atoms' other variables that
   the relaxation leaves in no conjunct at all, in name order. *)
let as_relaxation counts (c : T.t) =
  if not (may_hold_atom c) then None
  else
    let memo = Domain.DLS.get relax_memo in
    let cs =
      match Hashtbl.find_opt memo c.T.id with
      | Some cs -> cs
      | None ->
        let cs = relaxations c in
        Hashtbl.add memo c.T.id cs;
        cs
    in
    let single n = Hashtbl.find_opt counts n = Some 1 in
    match List.find_opt (fun { word = hi, lo; _ } -> single hi && single lo) cs with
    | None -> None
    | Some { word = hi, lo; set; built } ->
      let relaxed, vars = Lazy.force built in
      let pins =
        List.filter_map
          (fun (n, sort) ->
            if
              single n
              && (not (String.equal n hi || String.equal n lo))
              && not (occurs n relaxed)
            then Some (Def (n, default_of sort))
            else None)
          vars
      in
      Some ({ conj = c; relaxed; atoms = set; hi; lo }, pins)

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
          (fun (name, sort) -> bindings := Def (name, default_of sort) :: !bindings)
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
  let eliminated = ref 0 and solved = ref 0 in
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
      (* Unconstrained and checksum-word elimination: no definitions
         left, so occurrence counts are stable within this round. A
         dropped or relaxed conjunct's variables are invalidated, so
         two conjuncts sharing a variable cannot both be eliminated in
         one sweep on a stale count. *)
      let counts = occurrence_counts !conjs in
      let invalidate c =
        List.iter (fun v -> Hashtbl.replace counts v max_int) (var_names c);
        changed := true
      in
      let rec drop_unconstrained = function
        | [] -> []
        | c :: rest -> (
          match as_unconstrained counts c with
          | Some b ->
            invalidate c;
            bindings := b :: !bindings;
            trace := T_unconstrained (b, c) :: !trace;
            incr eliminated;
            drop_unconstrained rest
          | None -> (
            match as_relaxation counts c with
            | Some (r, pins) ->
              invalidate c;
              (* The pins are newer, so completion sets them first. *)
              bindings := pins @ (Word r :: !bindings);
              trace := T_relax r :: !trace;
              incr solved;
              resplit [ r.relaxed ] @ drop_unconstrained rest
            | None -> c :: drop_unconstrained rest))
      in
      conjs := drop_unconstrained !conjs)
  done;
  if contradiction () then
    { conjuncts = [ T.fls ]; key = T.fls; bindings = !bindings;
      trace = List.rev !trace; eliminated = !eliminated; sliced = 0;
      solved = !solved }
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
      eliminated = !eliminated; sliced = List.length dropped;
      solved = !solved }
  end

(* {1 Model completion}

   Bindings are recorded newest elimination first, and a binding's
   right-hand side can only mention variables that were still live when
   it was recorded — i.e. variables eliminated *later* (earlier in the
   list) or surviving into the residual formula. Evaluating newest
   first therefore sees every dependency already pinned. *)

(* Over the word [w], [fold (fold (s0 + w)) = k] for the ones'-complement
   difference [w = k -1 fold (fold s0)], written 0xffff rather than 0:
   the sum is then nonzero and congruent to [k] mod 0xffff, and two
   folds of a non-wrapping nonzero sum give the member of 1..0xffff in
   its class. [s0] is the sum with the word at 0. *)
let complete_word m r =
  let set w =
    Model.set_bv m r.hi (B.of_int ~width:8 (w lsr 8));
    Model.set_bv m r.lo (B.of_int ~width:8 (w land 0xff))
  in
  let solve atom =
    match checksum_atom atom with
    | Some (k, ts) ->
      set 0;
      let s0 =
        List.fold_left (fun n t -> n + B.to_int_exn (Eval.eval_bv m t)) 0 ts
      in
      let d = (((k - s0) mod 0xffff) + 0xffff) mod 0xffff in
      if d = 0 then 0xffff else d
    | None -> 0
  in
  let ws = List.map solve r.atoms in
  set
    (match List.find_opt (fun w -> set w; Eval.eval_bool m r.conj) ws with
    | Some w -> w
    | None -> List.hd ws)

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
          Model.set_bv m name (B.add v (B.one (B.width v)))
      | Word r -> complete_word m r)
    res.bindings;
  m
