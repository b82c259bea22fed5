(* Verdict-level proof certificates for [Unsat] answers.

   [Vdp_smt.Solver] reports "Unsat" for a suspect-path query after a
   pipeline of smart-constructor folding, interval refutation,
   word-level preprocessing, query caching and bit-blasting onto the
   CDCL core. Whatever stage decides hands over the evidence it decided
   with ([Solver.last_refutation]), and this module checks exactly that
   record, in a form small independent code can re-check. Each kind of
   evidence maps to one certificate kind:

   - {b folded}: the raw conjunction's smart-constructor normal form is
     literally [false] (checking is [Term.conj_is_false] on the query's
     conjunct list), or — [folded-pre] — the residual left by replaying
     the elimination trace is.
   - {b interval}: the solver's interval analysis emptied some
     subject's range. The explanation is replayed by
     {!Interval_check}, which re-derives every bound from the atoms
     themselves and demands each atom occur in the refuted
     conjunction — the raw one, or — [interval-pre] — the preprocessed
     residual, in which case the elimination trace is replayed first,
     exactly as for a DRAT certificate.
   - {b drat-ctx}: the SAT core refuted the residual under a selector
     assumption [sel], so what it derives is [~sel]; before retiring
     [sel] the context reads that derivation's trimmed cone out of its
     antecedent log, the solver's one proof record. The checker replays
     the elimination trace — every stage's side conditions re-checked
     with this module's own pattern matching, and the replayed residual
     hash-cons-identical to the certified one — then checks that the
     cone's steps derive [~sel] from its CNF, each by unit propagation
     over exactly the clauses its hints name, with the LRAT checker in
     {!Drat}, and holds [sel] to occurring only as [~sel] in binary
     root clauses,
     which makes the CNF with [sel] set a refutation of the core. The
     query cache keeps the proof (or the interval explanation) with the
     answer, so a hit in another context is certified from it too.
   - {b cached}: provenance — the same raw conjunction was already
     certified; the reference is to that checked certificate.

   A certificate that fails its check is recorded as a failure; nothing
   is re-solved to find other evidence.

   What is covered: the [Unsat] answers of Step-2 suspect-path checks
   (crash, bound, reach, and the fabric queries), the ones a [PROVED]
   verdict rests on directly. Not covered, and so trusted: Step-1 fork
   pruning ([Engine.plausible]) and Step-2 descent and bound/reach
   pruning ([Compose.plausible]), which drop branches on interval
   refutation alone ([Interval.extend] on a path's running environment,
   [Interval.refute_list]); and loop-measure and invariant proofs,
   which run uncertified checks on the element's loop context.

   Trusted base beyond that: [Term]'s hash-consed smart constructors,
   its list fold test [conj_is_false] (which must agree with
   [is_false (and_ ts)]) and [substitute_vars],
   [Preprocess.split_list]/[resplit], [Eval],
   [Bitblast] (CNF correspondence), and this library itself. The LRAT
   checker and the interval replay deliberately share no algorithmic
   code with the solver that produced the answers. *)

module T = Vdp_smt.Term
module P = Vdp_smt.Preprocess
module S = Vdp_smt.Solver
module Sat = Vdp_smt.Sat
module I = Vdp_smt.Interval
module Eval = Vdp_smt.Eval
module Model = Vdp_smt.Model
module B = Vdp_bitvec.Bitvec

type drat_payload = {
  nvars : int;  (** SAT variables, renumbered densely *)
  cnf : int list list;  (** the refutation cone's asserted clauses *)
  steps : (int array * int array) list;
      (** its derived clauses, oldest first, each with its hints *)
  goal : int array;
      (** the one-literal clause [~sel]: the answering context refuted
          [core] under its selector [sel], and the CNF guards each of
          [core]'s root clauses as [~sel \/ l] *)
  residual : T.t list;  (** the refuted conjunction *)
  core : T.t list;
      (** the multiset-subset of [residual] whose root clauses the cone
          holds; refuting a subset of a conjunction refutes the
          conjunction *)
  untrimmed : int;
      (** derived clauses in the producing solver's log before
          backward trimming ([steps] holds the trimmed count) *)
  trace : P.trace_step list;
      (** elimination script from the raw query to [residual] *)
}

type reason =
  | R_folded  (** the raw conjunction folds to [false] *)
  | R_interval of I.explanation  (** over the raw conjunction *)
  | R_folded_pre of P.trace_step list
      (** replaying the elimination trace leaves a residual that folds
          to [false] *)
  | R_interval_pre of {
      trace : P.trace_step list;
      residual : T.t list;  (** the conjunction the explanation refutes *)
      ex : I.explanation;
    }
  | R_drat of drat_payload
  | R_cached of int
      (** hash-consed id of an already-certified raw conjunction *)

type t = {
  query : T.t list;  (** the refuted conjunction, as the caller gave it *)
  key : T.t;
      (** [Term.and_ query], or [Term.fls] for a query that folds,
          whose conjunction is never built *)
  reason : reason;
}

let kind (c : t) =
  match c.reason with
  | R_folded -> "folded"
  | R_interval _ -> "interval"
  | R_folded_pre _ -> "folded-pre"
  | R_interval_pre _ -> "interval-pre"
  | R_drat _ -> "drat-ctx"
  | R_cached _ -> "cached"

let error fmt = Printf.ksprintf (fun s -> Error s) fmt
let ( let* ) = Result.bind
let now () = Unix.gettimeofday ()

(* {1 Elimination-trace replay}

   Re-run the preprocessing stages recorded in a payload's trace,
   starting from the raw query, with independently re-checked side
   conditions. Only the definition check is load-bearing for the Unsat
   direction (substituting [rhs] for [x] is refutation-sound only if
   some conjunct really forces [x = rhs]); dropping conjuncts —
   unconstrained elimination, slicing — can only relax a formula, so
   those checks are an audit of the producer rather than a soundness
   requirement. A checksum-word relaxation replaces a conjunct by a
   weaker one, which is sound only if the replacement really is the
   conjunct with positive atoms set to [true]; that is re-derived here.
   We check everything anyway. *)

let var_named (t : T.t) n =
  match t.T.node with
  | T.Bv_var (m, _) | T.Bool_var m -> String.equal m n
  | _ -> false

(* Free-variable names per term, memoised on the hash-consed id, one
   table per domain (certificates are checked from pool domains). The
   traces of one run's certificates walk the same shared query DAG, so
   each conjunct's variables are computed once per domain, not once per
   certificate. The memo cannot be poisoned: the checker alone fills
   it, and an id names one immutable term for the life of the process,
   so an entry is a pure function of the term it is keyed on. *)
let names_memo : (int, string list) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4096)

let names (t : T.t) =
  let memo = Domain.DLS.get names_memo in
  match Hashtbl.find_opt memo t.T.id with
  | Some ns -> ns
  | None ->
    let ns = List.map fst (T.free_vars t) in
    Hashtbl.add memo t.T.id ns;
    ns

let mentions n t = List.exists (String.equal n) (names t)

(* Remove one occurrence of [c] (by hash-consed identity) from [set]. *)
let remove_one c set =
  let rec go acc = function
    | [] -> None
    | x :: rest ->
      if T.equal x c then Some (List.rev_append acc rest) else go (x :: acc) rest
  in
  go [] set

(* Does conjunct [c] force [n = rhs]? *)
let defines n rhs (c : T.t) =
  match c.T.node with
  | T.Eq (a, b) ->
    (var_named a n && T.equal b rhs) || (var_named b n && T.equal a rhs)
  | T.Bool_var m -> String.equal m n && T.is_true rhs
  | T.Not inner -> (
    match inner.T.node with
    | T.Bool_var m -> String.equal m n && T.is_false rhs
    | _ -> false)
  | _ -> false

(* Is [c] satisfiable for every value of everything but [n] (given [n]
   occurs nowhere else)? Mirrors [Preprocess.as_unconstrained]. *)
let unconstrained_shape (b : P.binding) (c : T.t) =
  match (b, c.T.node) with
  | P.Diseq (n, t), T.Not inner -> (
    match inner.T.node with
    | T.Eq (x, y) ->
      ((var_named x n && T.equal y t) || (var_named y n && T.equal x t))
      && not (mentions n t)
    | _ -> false)
  | P.Def (n, rhs), T.Bv_cmp (T.Ule, x, y) ->
    (var_named x n && (not (mentions n y))
     && T.equal rhs (T.bv_int ~width:(T.width x) 0))
    || (var_named y n && (not (mentions n x)) && T.equal rhs x)
  | _ -> false

(* {2 Checksum-word relaxation}

   Setting atoms that occur at positive positions alone (under [And]
   and [Or], nowhere else) to [true] can only weaken a conjunct, so a
   refutation of the relaxed set refutes the original: that is the
   load-bearing check. The atoms' shape and the word's single
   occurrence are an audit of the producer, as for unconstrained
   elimination. *)

(* [c] with [atoms] set to [true] wherever they occur under [And]/[Or]
   alone, and whether each atom was met there. *)
let relax_positive atoms (c : T.t) =
  let met = Hashtbl.create 8 in
  let rec go (t : T.t) =
    if List.memq t atoms then begin
      Hashtbl.replace met t.T.id ();
      T.tru
    end
    else
      match t.T.node with
      | T.And ts -> T.and_ (List.map go (Array.to_list ts))
      | T.Or ts -> T.or_ (List.map go (Array.to_list ts))
      | _ -> t
  in
  let c' = go c in
  (c', List.for_all (fun (a : T.t) -> Hashtbl.mem met a.T.id) atoms)

(* Is [atom] [k = (fold (fold s))[15:0]] for a nonzero 16-bit [k],
   [fold u = (u & 0xffff) + (u >> 16)], and [s] a non-wrapping 32-bit
   sum of constants and zero-extended terms at most 16 bits wide, in
   which [hi] and [lo] occur once: as the addend [zext32 (concat hi lo)]?
   Mirrors [Preprocess.checksum_atom] and [Preprocess.free_words]. *)
let checksum_shape_of hi lo (atom : T.t) =
  let const (t : T.t) = match t.T.node with T.Bv_const v -> B.to_int v | _ -> None in
  let fold_of (t : T.t) =
    match t.T.node with
    | T.Bv_bin (T.Badd, { T.node = T.Bv_bin (T.Band, u, m); _ },
                { T.node = T.Bv_bin (T.Blshr, u', sh); _ })
      when u == u' && T.width u = 32 && const m = Some 0xffff && const sh = Some 16 ->
      Some u
    | _ -> None
  in
  let rec leaves acc (t : T.t) =
    match t.T.node with
    | T.Bv_bin (T.Badd, a, b) -> leaves (leaves acc b) a
    | _ -> t :: acc
  in
  let bound (t : T.t) =
    match t.T.node with
    | T.Bv_const _ -> const t
    | T.Zext (32, x) when T.width x <= 16 -> Some ((1 lsl T.width x) - 1)
    | _ -> None
  in
  let word (t : T.t) =
    match t.T.node with
    | T.Zext (32, { T.node = T.Concat (a, b); _ }) ->
      T.width a = 8 && T.width b = 8 && var_named a hi && var_named b lo
    | _ -> false
  in
  let sum_ok s =
    let ls = leaves [] s in
    let bounds = List.map bound ls in
    List.for_all Option.is_some bounds
    && List.fold_left (fun n b -> n + Option.get b) 0 bounds < 1 lsl 32
    && (match List.filter (fun l -> mentions hi l || mentions lo l) ls with
       | [ l ] -> word l
       | _ -> false)
  in
  match atom.T.node with
  | T.Eq (a, b) -> (
    let k, e = if const a <> None then (a, b) else (b, a) in
    match (const k, e.T.node) with
    | Some kv, T.Extract (15, 0, f) when T.width k = 16 && kv <> 0 -> (
      match Option.bind (fold_of f) fold_of with
      | Some s -> sum_ok s
      | None -> false)
    | _ -> false)
  | _ -> false

(* The certificates of one run relax the same few atoms, so verdicts are
   memoised per domain, like [names_memo] and just as unpoisonable. *)
let shape_memo : (int * string * string, bool) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let checksum_shape hi lo (atom : T.t) =
  let memo = Domain.DLS.get shape_memo in
  match Hashtbl.find_opt memo (atom.T.id, hi, lo) with
  | Some ok -> ok
  | None ->
    let ok = checksum_shape_of hi lo atom in
    Hashtbl.add memo (atom.T.id, hi, lo) ok;
    ok

let replay_trace (query : T.t list) (trace : P.trace_step list)
    (residual : T.t list) : (unit, string) result =
  let step set = function
    | P.T_def (n, rhs, c) -> (
      match remove_one c set with
      | None -> error "definition conjunct for %s is not in the set" n
      | Some rest ->
        if not (defines n rhs c) then
          error "conjunct does not define %s as recorded" n
        else if mentions n rhs then error "definition of %s mentions itself" n
        else
          (* One memo across the conjuncts: they share subterms, and
             conjuncts that never mention [n] are kept as-is rather
             than rebuilt. *)
          let memo = Hashtbl.create 64 in
          let subst v _ = if String.equal v n then Some rhs else None in
          Ok
            (P.resplit
               (List.map
                  (fun t ->
                    if mentions n t then T.substitute_vars ~memo subst t else t)
                  rest)))
    | P.T_unconstrained (b, c) -> (
      let n = match b with P.Def (n, _) | P.Diseq (n, _) -> n | P.Word r -> r.P.hi in
      match remove_one c set with
      | None -> error "unconstrained conjunct for %s is not in the set" n
      | Some rest ->
        if List.exists (mentions n) rest then
          error "%s still occurs elsewhere; elimination unsound" n
        else if not (unconstrained_shape b c) then
          error "unconstrained elimination of %s has an unexpected shape" n
        else Ok rest)
    | P.T_relax r -> (
      match remove_one r.P.conj set with
      | None -> error "relaxed conjunct is not in the set"
      | Some rest ->
        let relaxed, all_met = relax_positive r.P.atoms r.P.conj in
        if not (T.equal relaxed r.P.relaxed) then
          error "relaxed conjunct does not match the recorded relaxation"
        else if T.fold_subterms (fun hit t -> hit || List.memq t r.P.atoms) false relaxed
        then
          error "a relaxed atom also occurs under a non-And/Or connective"
        else if not all_met then error "a relaxed atom does not occur in the conjunct"
        else if not (List.for_all (checksum_shape r.P.hi r.P.lo) r.P.atoms) then
          error "relaxed atom is not a checksum equation over %s:%s" r.P.hi r.P.lo
        else if
          List.exists
            (fun t -> List.exists (fun n -> n = r.P.hi || n = r.P.lo) (names t))
            (relaxed :: rest)
        then error "word %s:%s still occurs after relaxation" r.P.hi r.P.lo
        else Ok (P.resplit [ relaxed ] @ rest))
    | P.T_slice dropped ->
      let defaults = Model.create () in
      let rec drop set = function
        | [] -> Ok set
        | d :: rest -> (
          match remove_one d set with
          | None -> error "sliced conjunct is not in the set"
          | Some set' ->
            if not (Eval.eval_bool defaults d) then
              error "sliced conjunct does not hold under defaults"
            else drop set' rest)
      in
      let* rest = drop set dropped in
      (* The dropped component must share no variable with what
         remains — otherwise it was not a component. *)
      let dropped_vars = List.concat_map names dropped in
      if List.exists (fun n -> List.exists (mentions n) rest) dropped_vars then
        error "sliced component shares variables with the residual"
      else Ok rest
  in
  let rec go set = function
    | [] ->
      if T.equal (T.and_ set) (T.and_ residual) then Ok ()
      else error "replayed residual differs from the certified one"
    | st :: rest ->
      let* set = step set st in
      go set rest
  in
  go (P.resplit (P.split_list query)) trace

(* {1 Checking} *)

(* An in-context proof shows [cnf] implies [~sel]. That refutes the
   core only if [sel] does nothing but switch the core's root clauses
   on: it must occur solely as [~sel], and only in binary clauses
   [~sel \/ l]. Setting [sel] true then leaves the other clauses plus
   every [l], and those are unsatisfiable. *)
let selector_guarded goal cnf =
  match goal with
  | [| g |] ->
    let v = Drat.var g in
    let guard = function
      | [ a; b ] -> (a = g && Drat.var b <> v) || (b = g && Drat.var a <> v)
      | _ -> false
    in
    if
      List.for_all
        (fun c -> guard c || not (List.exists (fun l -> Drat.var l = v) c))
        cnf
    then Ok ()
    else error "selector occurs outside its binary root clauses"
  | _ -> error "goal is not a single negated selector"

let check ?(lookup = fun _ -> false) (cert : t) : (unit, string) result =
  match cert.reason with
  | R_folded ->
    if T.conj_is_false cert.query then Ok ()
    else error "conjunction does not fold to false"
  | R_interval ex -> Interval_check.check cert.query ex
  | R_folded_pre trace -> replay_trace cert.query trace [ T.fls ]
  | R_interval_pre { trace; residual; ex } ->
    let* () = replay_trace cert.query trace residual in
    Interval_check.check residual ex
  | R_cached id ->
    if lookup id then Ok ()
    else error "no previously checked certificate for this conjunction"
  | R_drat p ->
    let* () = replay_trace cert.query p.trace p.residual in
    let* () =
      (* The core refutes a subset of the residual; verify the subset
         relation (multiset inclusion by hash-consed identity) so the
         CNF provably talks about conjuncts of the residual the trace
         replay just vouched for. *)
      let rec covered set = function
        | [] -> Ok ()
        | c :: rest -> (
          match remove_one c set with
          | None -> error "core conjunct is not part of the residual"
          | Some set' -> covered set' rest)
      in
      if p.core = [] then error "empty unsat core certifies nothing"
      else covered p.residual p.core
    in
    let* () = selector_guarded p.goal p.cnf in
    Drat.check ~goal:p.goal ~nvars:p.nvars ~cnf:p.cnf p.steps

(* {1 Production}

   One match: the evidence the solver decided with becomes the one
   certificate of its kind. *)

let of_refutation ~key (query : T.t list) (r : S.refutation) : t =
  let reason =
    match r with
    | S.Folded -> R_folded
    | S.Interval ex -> R_interval ex
    | S.Folded_pre pre -> R_folded_pre pre.P.trace
    | S.Interval_pre (pre, ex) ->
      R_interval_pre { trace = pre.P.trace; residual = pre.P.conjuncts; ex }
    | S.Drat (pre, pr) ->
      let tp = pr.S.trimmed in
      R_drat
        {
          nvars = tp.Sat.nvars;
          cnf = tp.Sat.cnf;
          steps = tp.Sat.steps;
          goal = tp.Sat.goal;
          residual = pre.P.conjuncts;
          core = pr.S.core;
          untrimmed = pr.S.logged;
          trace = pre.P.trace;
        }
  in
  { query; key; reason }

(* A query's {!t.key}: [Term.fls] when it folds, else its conjunction. *)
let key_of query = if T.conj_is_false query then T.fls else T.and_ query

(* The certificate for [refutation], once it has passed {!check}; [key]
   is [key_of query]. *)
let produce ?refutation ~key (query : T.t list) : (t, string) result =
  match refutation with
  | None -> error "uncertified: the solver kept no evidence for this refutation"
  | Some r ->
    let cert = of_refutation ~key query r in
    match check cert with
    | Ok () -> Ok cert
    | Error e -> error "%s: %s" (kind cert) e

(* {1 Collector}

   Verifier-facing registry: certifies each refuted conjunction once,
   answers repeats by provenance, aggregates counters into a summary
   and into [Solver.stats] (so they ride the existing stats plumbing
   into reports and benchmark JSON). Thread-safe — parallel
   verification certifies from worker domains. *)

type summary = {
  mutable attempted : int;
  mutable certified : int;
  mutable failed : int;
  mutable folded : int;
  mutable interval : int;
  mutable drat : int;
  mutable drat_ctx : int;
      (** of [drat]: read out of the answering context by this run *)
  mutable cached : int;
  mutable pcache_hits : int;
      (** of [drat]: built from a proof stored with a query-cache hit,
          re-checked in full against the hitting query *)
  mutable proof_clauses : int;
      (** steps of the checked proofs, kept after backward trimming *)
  mutable untrimmed_clauses : int;
      (** derived clauses in the producing solvers' logs before trimming *)
  mutable solve_seconds : float;  (** in-context proof extraction *)
  mutable check_seconds : float;
  mutable failures : string list;  (** first few messages, oldest first *)
}

let empty_summary () =
  {
    attempted = 0;
    certified = 0;
    failed = 0;
    folded = 0;
    interval = 0;
    drat = 0;
    drat_ctx = 0;
    cached = 0;
    pcache_hits = 0;
    proof_clauses = 0;
    untrimmed_clauses = 0;
    solve_seconds = 0.;
    check_seconds = 0.;
    failures = [];
  }

type collector = {
  memo : (int, bool) Hashtbl.t;  (* raw key id -> certified? *)
  sum : summary;
  lock : Mutex.t;
}

let create_collector () =
  { memo = Hashtbl.create 64; sum = empty_summary (); lock = Mutex.create () }

let locked col f =
  Mutex.lock col.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock col.lock) f

let max_kept_failures = 5

let record_failure col msg =
  if List.length col.sum.failures < max_kept_failures then
    col.sum.failures <- col.sum.failures @ [ msg ]

(* Account one fresh (non-provenance) result under the lock: [solve_s]
   spent extracting its proof, [check_s] checking it, and whether a
   DRAT proof was [stored] with a query-cache hit rather than read out
   of the answering context. *)
let record_fresh col outcome ~solve_s ~check_s ~stored =
  let s = col.sum and g = S.stats in
  s.attempted <- s.attempted + 1;
  g.S.cert_attempted <- g.S.cert_attempted + 1;
  s.solve_seconds <- s.solve_seconds +. solve_s;
  s.check_seconds <- s.check_seconds +. check_s;
  g.S.cert_solve_time <- g.S.cert_solve_time +. solve_s;
  g.S.cert_check_time <- g.S.cert_check_time +. check_s;
  match outcome with
  | Ok cert ->
    s.certified <- s.certified + 1;
    g.S.cert_checked <- g.S.cert_checked + 1;
    (match cert.reason with
    | R_folded | R_folded_pre _ ->
      s.folded <- s.folded + 1;
      g.S.cert_folded <- g.S.cert_folded + 1
    | R_interval _ | R_interval_pre _ ->
      s.interval <- s.interval + 1;
      g.S.cert_interval <- g.S.cert_interval + 1
    | R_drat p ->
      s.drat <- s.drat + 1;
      g.S.cert_drat <- g.S.cert_drat + 1;
      let adds = List.length p.steps in
      s.proof_clauses <- s.proof_clauses + adds;
      g.S.cert_proof_clauses <- g.S.cert_proof_clauses + adds;
      s.untrimmed_clauses <- s.untrimmed_clauses + p.untrimmed;
      g.S.cert_untrimmed_clauses <- g.S.cert_untrimmed_clauses + p.untrimmed;
      if stored then begin
        s.pcache_hits <- s.pcache_hits + 1;
        g.S.cert_pcache_hits <- g.S.cert_pcache_hits + 1
      end
      else begin
        s.drat_ctx <- s.drat_ctx + 1;
        g.S.cert_drat_ctx <- g.S.cert_drat_ctx + 1
      end
    | R_cached _ -> ())
  | Error msg ->
    s.failed <- s.failed + 1;
    g.S.cert_failed <- g.S.cert_failed + 1;
    record_failure col msg

(* Account a provenance hit under the lock. *)
let record_cached col ok =
  let s = col.sum and g = S.stats in
  s.attempted <- s.attempted + 1;
  g.S.cert_attempted <- g.S.cert_attempted + 1;
  if ok then begin
    s.certified <- s.certified + 1;
    s.cached <- s.cached + 1;
    g.S.cert_checked <- g.S.cert_checked + 1;
    g.S.cert_cached <- g.S.cert_cached + 1
  end
  else begin
    s.failed <- s.failed + 1;
    g.S.cert_failed <- g.S.cert_failed + 1
  end

(* Certify a refuted conjunction from the evidence the answering
   context decided it with ({!Vdp_smt.Solver.last_refutation}). Returns
   the checked certificate — [R_cached] when this exact raw conjunction
   was certified before — or why it failed. Every conjunction that folds
   has the key [false], so a shared key there says nothing about
   repeats: each is certified as folded and none enters the memo. *)
let certify_refutation ?refutation col (query : T.t list) :
    (t, string) result =
  let key =
    (* A folded claim is checked by {!check}; it needs no key of its own. *)
    match refutation with Some S.Folded -> T.fls | _ -> key_of query
  in
  let folds = T.is_false key in
  let prior =
    if folds then None
    else locked col (fun () -> Hashtbl.find_opt col.memo key.T.id)
  in
  match prior with
  | Some ok ->
    locked col (fun () -> record_cached col ok);
    if ok then Ok { query; key; reason = R_cached key.T.id }
    else error "previously failed to certify this conjunction"
  | None ->
    let t0 = now () in
    let refutation = if folds then Some S.Folded else refutation in
    let outcome = produce ?refutation ~key query in
    let check_s = now () -. t0 in
    let solve_s, stored =
      match refutation with
      | Some (S.Drat (_, pr)) when pr.S.stored ->
        (* The extraction was paid, and charged, by the context that
           solved it. *)
        (0., true)
      | Some (S.Drat (_, pr)) -> (pr.S.extract_seconds, false)
      | _ -> (0., false)
    in
    locked col (fun () ->
        (* A racing domain may have finished the same key first; keep
           the first verdict, but account this (real) work too. *)
        if not (folds || Hashtbl.mem col.memo key.T.id) then
          Hashtbl.replace col.memo key.T.id (Result.is_ok outcome);
        record_fresh col outcome ~solve_s ~check_s ~stored);
    outcome

let summary col : summary =
  locked col (fun () -> { col.sum with attempted = col.sum.attempted })
