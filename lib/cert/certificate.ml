(* Verdict-level proof certificates for [Unsat] answers.

   [Vdp_smt.Solver] reports "Unsat" for a suspect-path query after a
   pipeline of smart-constructor folding, word-level preprocessing,
   interval refutation, query caching and bit-blasting onto the CDCL
   core. A certificate records *how* a given refutation was discharged,
   in a form small independent code can re-check:

   - {b folded}: the raw conjunction's smart-constructor normal form is
     literally [false] (checking is [Term.is_false]), or — [folded-pre]
     — the residual left by replaying the elimination trace is.
   - {b interval}: the producer's interval analysis emptied some
     subject's range. The explanation is replayed by
     {!Interval_check}, which re-derives every bound from the atoms
     themselves and demands each atom occur in the refuted
     conjunction — the raw one, or the preprocessed residual (in which
     case the elimination trace is replayed first, exactly as for a
     DRAT certificate).
   - {b drat}: a DRAT proof over the bit-blasted CNF of the
     (preprocessed or raw) conjunction, validated by the independent
     forward checker in {!Drat}. When the CNF is of the *preprocessed*
     residual, the preprocessing itself is replayed from the recorded
     elimination trace — every stage's side conditions re-checked with
     this module's own pattern matching — and the replayed residual
     must be hash-cons-identical to the certified one, so the CNF
     provably corresponds to the original query.
   - {b cached}: provenance — the same raw conjunction was already
     certified; the reference is to that checked certificate.

   A refutation the SAT core decided is certified from the incremental
   context that decided it ([drat-ctx]): the context answers under a
   selector assumption [sel], so what it derives is [~sel], and before
   retiring [sel] it reads that derivation's trimmed cone out of its
   clause log. The checker proves [~sel] from the cone's CNF and holds
   [sel] to occurring only as [~sel] in binary root clauses, which makes
   the CNF with [sel] set a refutation of the core. The query cache
   keeps that proof with the answer, so a hit in another context needs
   no solve either. A fresh, assumption-free re-solve remains only as
   the fallback: for a query-cache hit with no stored proof, and for an
   in-context proof that fails its check. [bench e10] reports the
   overhead.

   Trusted base: [Term]'s hash-consed smart constructors and
   [substitute], [Preprocess.split_list]/[resplit], [Eval], [Bitblast]
   (CNF correspondence), and this library itself. The DRAT checker and
   the interval replay deliberately share no algorithmic code with the
   solver that produced the answers. *)

module T = Vdp_smt.Term
module P = Vdp_smt.Preprocess
module S = Vdp_smt.Solver
module Sat = Vdp_smt.Sat
module Bitblast = Vdp_smt.Bitblast
module I = Vdp_smt.Interval
module Eval = Vdp_smt.Eval
module Model = Vdp_smt.Model

type drat_payload = {
  nvars : int;  (** SAT variables, renumbered densely *)
  cnf : int list list;  (** the refutation cone's asserted clauses *)
  steps : Drat.step list;  (** its derivation steps, oldest first *)
  goal : int array;
      (** [[||]]: the steps refute [cnf] outright (a fresh re-solve).
          Otherwise the one-literal clause [~sel]: the answering
          context refuted [core] under its selector [sel], and the CNF
          guards each of [core]'s root clauses as [~sel \/ l] *)
  residual : T.t list;  (** the refuted conjunction *)
  core : T.t list option;
      (** in-context proofs only: the multiset-subset of [residual]
          whose root clauses the cone holds; refuting a subset of a
          conjunction refutes the conjunction *)
  untrimmed : int;
      (** derived clauses in the producing solver's log before
          backward trimming ([steps] holds the trimmed count) *)
  trace : P.trace_step list;
      (** elimination script from the raw query to [residual]; empty
          when [preprocessed] is false *)
  preprocessed : bool;
}

type interval_payload = {
  i_ex : I.explanation;
  i_residual : T.t list;  (** the conjunction the explanation refutes *)
  i_trace : P.trace_step list;  (** empty unless [i_preprocessed] *)
  i_preprocessed : bool;
}

type reason =
  | R_folded of P.trace_step list option
      (** [None]: the raw conjunction folds to [false]. [Some trace]:
          replaying the elimination trace leaves a residual that does *)
  | R_interval of interval_payload
  | R_drat of drat_payload
  | R_cached of int
      (** hash-consed id of an already-certified raw conjunction *)

type t = {
  query : T.t list;  (** the refuted conjunction, as the caller gave it *)
  key : T.t;  (** [Term.and_ query] *)
  reason : reason;
}

let kind (c : t) =
  match c.reason with
  | R_folded None -> "folded"
  | R_folded (Some _) -> "folded-pre"
  | R_interval p -> if p.i_preprocessed then "interval-pre" else "interval"
  | R_drat p ->
    if p.goal <> [||] then "drat-ctx"
    else if p.preprocessed then "drat"
    else "drat-raw"
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
   requirement. We check everything anyway. *)

let var_named (t : T.t) n =
  match t.T.node with
  | T.Bv_var (m, _) | T.Bool_var m -> String.equal m n
  | _ -> false

let mentions n t = List.exists (fun (m, _) -> String.equal m n) (T.free_vars t)

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

let replay_trace (query : T.t list) (trace : P.trace_step list)
    (residual : T.t list) : (unit, string) result =
  (* Occurs-check memoized across the whole replay (subterms recur from
     step to step) with early exit — the replay's hot path is deciding
     which conjuncts a definition touches, and most touch nothing. *)
  let occ_tbl = Hashtbl.create 512 in
  let rec occurs n (t : T.t) =
    match t.T.node with
    | T.Bool_var s | T.Bv_var (s, _) -> String.equal s n
    | _ -> (
      match Hashtbl.find_opt occ_tbl (t.T.id, n) with
      | Some b -> b
      | None ->
        let b = List.exists (occurs n) (T.children t) in
        Hashtbl.add occ_tbl (t.T.id, n) b;
        b)
  in
  let step set = function
    | P.T_def (n, rhs, c) -> (
      match remove_one c set with
      | None -> error "definition conjunct for %s is not in the set" n
      | Some rest ->
        if not (defines n rhs c) then
          error "conjunct does not define %s as recorded" n
        else if occurs n rhs then error "definition of %s mentions itself" n
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
                    if occurs n t then T.substitute_vars ~memo subst t else t)
                  rest)))
    | P.T_unconstrained (b, c) -> (
      let n = match b with P.Def (n, _) | P.Diseq (n, _) -> n in
      match remove_one c set with
      | None -> error "unconstrained conjunct for %s is not in the set" n
      | Some rest ->
        if List.exists (occurs n) rest then
          error "%s still occurs elsewhere; elimination unsound" n
        else if not (unconstrained_shape b c) then
          error "unconstrained elimination of %s has an unexpected shape" n
        else Ok rest)
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
      let dropped_vars =
        List.concat_map (fun d -> List.map fst (T.free_vars d)) dropped
      in
      if List.exists (fun n -> List.exists (occurs n) rest) dropped_vars then
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
  | R_folded None ->
    if T.is_false cert.key then Ok ()
    else error "conjunction does not fold to false"
  | R_folded (Some trace) -> replay_trace cert.query trace [ T.fls ]
  | R_interval p ->
    let* () =
      if p.i_preprocessed then replay_trace cert.query p.i_trace p.i_residual
      else if T.equal (T.and_ p.i_residual) cert.key then Ok ()
      else error "interval residual differs from the query conjunction"
    in
    Interval_check.check p.i_residual p.i_ex
  | R_cached id ->
    if lookup id then Ok ()
    else error "no previously checked certificate for this conjunction"
  | R_drat p ->
    if p.residual = [] then error "empty residual certifies nothing"
    else
      let* () =
        if p.preprocessed then replay_trace cert.query p.trace p.residual
        else if T.equal (T.and_ p.residual) cert.key then Ok ()
        else error "raw residual differs from the query conjunction"
      in
      let* () =
        (* A core refutes a subset of the residual; verify the subset
           relation (multiset inclusion by hash-consed identity) so the
           CNF provably talks about conjuncts of the residual the trace
           replay just vouched for. *)
        match p.core with
        | None ->
          if p.goal = [||] then Ok ()
          else error "in-context proof without a core"
        | Some [] -> error "empty unsat core certifies nothing"
        | Some sub ->
          let rec covered set = function
            | [] -> Ok ()
            | c :: rest -> (
              match remove_one c set with
              | None -> error "core conjunct is not part of the residual"
              | Some set' -> covered set' rest)
          in
          covered p.residual sub
      in
      let* () =
        if p.goal = [||] then Ok () else selector_guarded p.goal p.cnf
      in
      Drat.check ~expected_deletions:0 ~goal:p.goal ~nvars:p.nvars ~cnf:p.cnf
        p.steps

(* {1 Production} *)

let payload_of (tp : Sat.trimmed) ~untrimmed ~core ~preprocessed
    (pre : P.result) =
  {
    nvars = tp.Sat.nvars;
    cnf = tp.Sat.cnf;
    steps = List.map (fun c -> Drat.Add c) tp.Sat.steps;
    goal = tp.Sat.goal;
    residual = pre.P.conjuncts;
    core;
    untrimmed;
    trace = pre.P.trace;
    preprocessed;
  }

(* The fallback producer: bit-blast into a fresh antecedent-tracking
   instance and re-solve without assumptions. The proof is the backward
   cone of the empty clause: only the CNF clauses and derivation steps
   it depends on are kept, with no deletions — every kept derived clause
   is RUP with respect to the kept clauses before it, so the trimmed
   trace still checks as forward DRAT with 0 expected deletions. *)
let blast_unsat ?max_conflicts ~preprocessed (pre : P.result) :
    (drat_payload, string) result =
  let bb = Bitblast.create ~track:true () in
  List.iter (Bitblast.assert_term bb) pre.P.conjuncts;
  let sat = Bitblast.sat bb in
  let r = Sat.solve ?max_conflicts sat in
  match (r, Sat.trimmed_proof sat) with
  | Sat.Unsat, Some tp ->
    Ok
      (payload_of tp ~untrimmed:(Sat.num_derived sat) ~core:None ~preprocessed
         pre)
  | Sat.Unsat, None -> error "certifying re-solve captured no refutation cone"
  | Sat.Sat, _ -> error "certifying re-solve answered Sat"
  | Sat.Unknown, _ -> error "certifying re-solve exhausted its conflict budget"

(* What one production spent: seconds producing proofs (in-context
   extraction plus re-solves), seconds checking them, how many fresh
   re-solves ran, and whether the proof cache answered. *)
type work = {
  mutable solve_s : float;
  mutable check_s : float;
  mutable resolves : int;
  mutable pcache_hit : bool;
}

let fresh_work () =
  { solve_s = 0.; check_s = 0.; resolves = 0; pcache_hit = false }

(* Produce a certificate that has already passed {!check}, walking the
   tiers: folded, interval replay over the raw conjunction, folded or
   interval replay over the preprocessed residual, a proof-cache hit (a
   previously checked trimmed proof over the same preprocessed key,
   re-checked in full against this query's own elimination trace — a
   tampered cached proof is rejected, never trusted), DRAT read from the
   answering context, and last the fresh re-solves: DRAT over the
   preprocessed residual, then over the raw conjunction. Each candidate
   is validated before acceptance, so a producer/checker divergence
   degrades to the next tier instead of a bogus certificate.

   The answering context hands over what it already knows. [stage] is
   the stage that decided, and the tiers it has already shown cannot
   apply are skipped: a query the SAT core decided did not fold, and no
   interval refutation applied to it. [pre] is its preprocessing
   result, so the certified residual — and the proof-cache key — are
   exactly the ones the query cache saw. [proof] is its trimmed
   in-context refutation, or the one stored with a cached answer (see
   [Solver.last_proof]). Without [stage] every tier is tried. *)
let produce ?max_conflicts ?pre:pre0 ?stage ?proof ?pcache_find
    ?pcache_store ?(work = fresh_work ()) (query : T.t list) :
    (t, string) result =
  let key = T.and_ query in
  let checked cert =
    let t0 = now () in
    let r = check cert in
    work.check_s <- work.check_s +. (now () -. t0);
    match r with Ok () -> Ok cert | Error e -> Error (kind cert ^ ": " ^ e)
  in
  let resolve pre ~preprocessed () =
    if T.is_true pre.P.key then
      error "preprocessing reduced the query to true; nothing to refute"
    else
      let t0 = now () in
      let r = blast_unsat ?max_conflicts ~preprocessed pre in
      work.solve_s <- work.solve_s +. (now () -. t0);
      work.resolves <- work.resolves + 1;
      let* payload = r in
      checked { query; key; reason = R_drat payload }
  in
  (* One preprocessing pass shared by every candidate that wants it. *)
  let pre =
    lazy (match pre0 with Some p -> p | None -> P.run query)
  in
  let interval conjs residual ~trace ~preprocessed () =
    match I.explain (T.and_ conjs) with
    | Some ex ->
      checked
        {
          query;
          key;
          reason =
            R_interval
              {
                i_ex = ex;
                i_residual = residual;
                i_trace = trace;
                i_preprocessed = preprocessed;
              };
        }
    | None -> error "interval: no explanation"
  in
  let at stages =
    match stage with None -> true | Some st -> List.mem st stages
  in
  let tiers =
    [
      ( at [ S.Folded ],
        fun () ->
          if T.is_false key then checked { query; key; reason = R_folded None }
          else error "folded: conjunction is not literally false" );
      ( at [ S.Interval_raw ],
        interval query query ~trace:[] ~preprocessed:false );
      ( at [ S.Folded_pre ],
        fun () ->
          let p = Lazy.force pre in
          if T.is_false p.P.key then
            checked { query; key; reason = R_folded (Some p.P.trace) }
          else error "folded-pre: residual is not literally false" );
      ( at [ S.Interval_pre; S.Cached ],
        fun () ->
          let p = Lazy.force pre in
          interval p.P.conjuncts p.P.conjuncts ~trace:p.P.trace
            ~preprocessed:true () );
      ( at [ S.Cached ],
        fun () ->
          match pcache_find with
          | None -> error "pcache: no proof cache"
          | Some find -> (
            let p = Lazy.force pre in
            match find p.P.key.T.id with
            | None -> error "pcache: miss"
            | Some payload ->
              (* Same preprocessed key, so the cached residual's
                 conjunction is hash-cons-equal to this query's; swap in
                 this query's own elimination trace and re-check in
                 full. *)
              let r =
                checked
                  {
                    query;
                    key;
                    reason = R_drat { payload with trace = p.P.trace };
                  }
              in
              work.pcache_hit <- Result.is_ok r;
              r) );
      ( proof <> None,
        fun () ->
          match proof with
          | None -> error "drat-ctx: no in-context proof"
          | Some pr ->
            work.solve_s <- work.solve_s +. pr.S.extract_seconds;
            checked
              {
                query;
                key;
                reason =
                  R_drat
                    (payload_of pr.S.trimmed ~untrimmed:pr.S.logged
                       ~core:(Some pr.S.core) ~preprocessed:true
                       (Lazy.force pre));
              } );
      (true, fun () -> resolve (Lazy.force pre) ~preprocessed:true ());
      (* The raw blast trusts no preprocessing: it holds even if the
         elimination trace fails to replay. *)
      (true, resolve (P.identity query) ~preprocessed:false);
    ]
  in
  let rec walk errs = function
    | [] -> error "uncertified (%s)" (String.concat "; " (List.rev errs))
    | (false, _) :: rest -> walk errs rest
    | (true, c) :: rest -> (
      match c () with Ok cert -> Ok cert | Error e -> walk (e :: errs) rest)
  in
  let r = walk [] tiers in
  (* Remember freshly produced-and-checked preprocessed proofs under
     their preprocessed key for future queries with the same residual. *)
  (match (r, pcache_store) with
  | Ok { reason = R_drat payload; _ }, Some store
    when (not work.pcache_hit) && payload.preprocessed ->
    store (Lazy.force pre).P.key.T.id payload
  | _ -> ());
  r

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
      (** of [drat]: read from the answering context, no re-solve *)
  mutable fallback : int;  (** fresh re-solves run to produce DRAT *)
  mutable cached : int;
  mutable pcache_hits : int;
      (** discharged by the proof cache: a previously checked trimmed
          proof over the same preprocessed key, re-checked per hit *)
  mutable proof_clauses : int;
  mutable proof_deletions : int;
  mutable trimmed_clauses : int;
      (** proof additions kept after backward trimming (sums [steps]) *)
  mutable untrimmed_clauses : int;
      (** derived clauses in the producing solvers' logs before trimming *)
  mutable solve_seconds : float;
      (** in-context extraction plus fallback re-solves *)
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
    fallback = 0;
    cached = 0;
    pcache_hits = 0;
    proof_clauses = 0;
    proof_deletions = 0;
    trimmed_clauses = 0;
    untrimmed_clauses = 0;
    solve_seconds = 0.;
    check_seconds = 0.;
    failures = [];
  }

type collector = {
  max_conflicts : int option;
  memo : (int, bool) Hashtbl.t;  (* raw key id -> certified? *)
  pcache : (int, drat_payload) Hashtbl.t;
      (* preprocessed key id -> checked trimmed proof; aligned with the
         query cache's key so solver cache hits become proof-cache hits *)
  sum : summary;
  lock : Mutex.t;
}

let create_collector ?max_conflicts () =
  {
    max_conflicts;
    memo = Hashtbl.create 64;
    pcache = Hashtbl.create 64;
    sum = empty_summary ();
    lock = Mutex.create ();
  }

let locked col f =
  Mutex.lock col.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock col.lock) f

let max_kept_failures = 5

let record_failure col msg =
  if List.length col.sum.failures < max_kept_failures then
    col.sum.failures <- col.sum.failures @ [ msg ]

(* Account one fresh (non-provenance) result under the lock. *)
let record_fresh col outcome (w : work) =
  let s = col.sum and g = S.stats in
  s.attempted <- s.attempted + 1;
  g.S.cert_attempted <- g.S.cert_attempted + 1;
  s.solve_seconds <- s.solve_seconds +. w.solve_s;
  s.check_seconds <- s.check_seconds +. w.check_s;
  s.fallback <- s.fallback + w.resolves;
  g.S.cert_solve_time <- g.S.cert_solve_time +. w.solve_s;
  g.S.cert_check_time <- g.S.cert_check_time +. w.check_s;
  g.S.cert_fallback <- g.S.cert_fallback + w.resolves;
  match outcome with
  | Ok cert ->
    s.certified <- s.certified + 1;
    g.S.cert_checked <- g.S.cert_checked + 1;
    (match cert.reason with
    | R_folded _ ->
      s.folded <- s.folded + 1;
      g.S.cert_folded <- g.S.cert_folded + 1
    | R_interval _ ->
      s.interval <- s.interval + 1;
      g.S.cert_interval <- g.S.cert_interval + 1
    | R_drat p ->
      s.drat <- s.drat + 1;
      g.S.cert_drat <- g.S.cert_drat + 1;
      let count f = List.length (List.filter f p.steps) in
      let adds = count (function Drat.Add _ -> true | Drat.Delete _ -> false) in
      let dels = List.length p.steps - adds in
      s.proof_clauses <- s.proof_clauses + adds;
      s.proof_deletions <- s.proof_deletions + dels;
      g.S.cert_proof_clauses <- g.S.cert_proof_clauses + adds;
      g.S.cert_proof_deletions <- g.S.cert_proof_deletions + dels;
      if w.pcache_hit then begin
        s.pcache_hits <- s.pcache_hits + 1;
        g.S.cert_pcache_hits <- g.S.cert_pcache_hits + 1
      end
      else begin
        if p.goal <> [||] then begin
          s.drat_ctx <- s.drat_ctx + 1;
          g.S.cert_drat_ctx <- g.S.cert_drat_ctx + 1
        end;
        (* Trimming effectiveness over freshly produced proofs only
           (a cache hit re-checks an already-counted proof). *)
        s.trimmed_clauses <- s.trimmed_clauses + adds;
        s.untrimmed_clauses <- s.untrimmed_clauses + p.untrimmed;
        g.S.cert_trimmed_clauses <- g.S.cert_trimmed_clauses + adds;
        g.S.cert_untrimmed_clauses <- g.S.cert_untrimmed_clauses + p.untrimmed
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

(* Certify a refuted conjunction. Returns the checked certificate —
   [R_cached] when this exact raw conjunction was certified before —
   or the producer/checker failure chain. [stage], [pre] and [proof]
   come from the answering context when there is one (see
   {!Vdp_smt.Solver.last_stage}, [last_pre] and [last_proof]). *)
let certify_refutation ?stage ?pre ?proof col (query : T.t list) :
    (t, string) result =
  let key = T.and_ query in
  let prior = locked col (fun () -> Hashtbl.find_opt col.memo key.T.id) in
  match prior with
  | Some ok ->
    locked col (fun () -> record_cached col ok);
    if ok then Ok { query; key; reason = R_cached key.T.id }
    else error "previously failed to certify this conjunction"
  | None ->
    let work = fresh_work () in
    let pcache_find id = locked col (fun () -> Hashtbl.find_opt col.pcache id) in
    let pcache_store id payload =
      locked col (fun () -> Hashtbl.replace col.pcache id payload)
    in
    let outcome =
      produce ?max_conflicts:col.max_conflicts ?stage ?pre ?proof
        ~pcache_find ~pcache_store ~work query
    in
    locked col (fun () ->
        (* A racing domain may have finished the same key first; keep
           the first verdict, but account this (real) work too. *)
        if not (Hashtbl.mem col.memo key.T.id) then
          Hashtbl.replace col.memo key.T.id (Result.is_ok outcome);
        record_fresh col outcome work);
    outcome

let summary col : summary =
  locked col (fun () -> { col.sum with attempted = col.sum.attempted })
