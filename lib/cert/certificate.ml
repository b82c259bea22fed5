(* Verdict-level proof certificates for [Unsat] answers.

   [Vdp_smt.Solver] reports "Unsat" for a suspect-path query after a
   pipeline of smart-constructor folding, word-level preprocessing,
   interval refutation, query caching and bit-blasting onto the CDCL
   core. A certificate records *how* a given refutation was discharged,
   in a form small independent code can re-check:

   - {b folded}: the raw conjunction's smart-constructor normal form is
     literally [false]. Checking is [Term.is_false].
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

   Production always re-solves in a fresh, assumption-free,
   proof-logging solver instance (the incremental front end answers
   under selector assumptions, which never yields a standalone empty
   clause), so certification cost is isolated from solving cost and
   measured separately; [bench e10] reports the overhead.

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
  nvars : int;  (** SAT variables in the certifying instance *)
  cnf : int list list;  (** problem clauses as asserted, oldest first *)
  steps : Drat.step list;  (** the proof trace, oldest first *)
  deletions : int;
      (** the producing solver's own deletion counters (learned +
          problem); cross-checked against the trace's delete steps.
          Always 0 for backward-trimmed proofs, which keep no deletions *)
  residual : T.t list;  (** the refuted conjunction *)
  blasted : T.t list option;
      (** when [Some], the CNF encodes only this multiset-subset of
          [residual] (an unsat core reported by the answering solver);
          refuting a subset of a conjunction refutes the conjunction.
          [None] means the whole residual was blasted *)
  untrimmed : int;
      (** clause additions in the forward proof log before backward
          trimming ([steps] holds the trimmed count) *)
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
  | R_folded
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
  | R_folded -> "folded"
  | R_interval p -> if p.i_preprocessed then "interval-pre" else "interval"
  | R_drat p ->
    if p.blasted <> None then "drat-core"
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

let prof_replay = ref 0.
let prof_drat = ref 0.
let prof_blast = ref 0.
let prof_sat = ref 0.
let prof_setup = ref 0.
let prof_trim = ref 0.
let prof_interval = ref 0.
let prof_core_certs = ref 0
let prof_full_certs = ref 0
let prof_cone_clauses = ref 0

let () =
  at_exit (fun () ->
      if Sys.getenv_opt "VDP_CERT_PROF" <> None then
        Printf.eprintf
          "CERT_PROF replay %.3fs drat %.3fs blast %.3fs sat %.3fs setup %.3fs trim %.3fs interval %.3fs core/full %d/%d cone_clauses %d\n%!"
          !prof_replay !prof_drat !prof_blast !prof_sat !prof_setup !prof_trim
          !prof_interval !prof_core_certs !prof_full_certs !prof_cone_clauses)

let timed acc f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  acc := !acc +. (Unix.gettimeofday () -. t0);
  r

let check ?(lookup = fun _ -> false) (cert : t) : (unit, string) result =
  match cert.reason with
  | R_folded ->
    if T.is_false cert.key then Ok ()
    else error "conjunction does not fold to false"
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
        if p.preprocessed then
          timed prof_replay (fun () -> replay_trace cert.query p.trace p.residual)
        else if T.equal (T.and_ p.residual) cert.key then Ok ()
        else error "raw residual differs from the query conjunction"
      in
      let* () =
        (* A core certificate refutes a subset of the residual; verify
           the subset relation (multiset inclusion by hash-consed
           identity) so the CNF provably talks about conjuncts of the
           residual the trace replay just vouched for. *)
        match p.blasted with
        | None -> Ok ()
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
      timed prof_drat (fun () ->
          Drat.check ~expected_deletions:p.deletions ~nvars:p.nvars ~cnf:p.cnf
            p.steps)

(* {1 Production} *)

(* A long-lived provenance-recording blast context shared across
   certificate productions. Suspect paths through one pipeline share
   most of their conjuncts, so a per-certificate fresh blast re-encodes
   the same circuits hundreds of times; the shared context encodes each
   gate once and {!blast_unsat} copies only the clause cone of its own
   roots into a fresh proof-logging solver. The shared instance never
   receives root unit clauses — it is a gate store, not a solver — and
   it carries its own lock because production runs outside the
   collector's. *)
type shared_blast = { sb_ctx : Bitblast.ctx; sb_lock : Mutex.t }

let create_shared_blast () =
  {
    sb_ctx = Bitblast.create ~track:true ~provenance:true ();
    sb_lock = Mutex.create ();
  }

(* Re-answer [conjuncts] on the persistent shared instance under a
   throwaway selector assumption and harvest the conflict cone's tags
   as an unsat core. Used when the answering solver supplied no core
   (a one-shot fabric query, a query-cache hit): the persistent
   instance keeps gate encodings and learned clauses across
   certificates, so this discovery solve costs a fraction of a
   standalone re-solve, and the core it
   yields shrinks the standalone proof solve that follows. The core is
   only a hint — {!check} verifies the subset relation and the DRAT
   proof regardless — so a wrong answer here degrades cost, never
   soundness. *)
let discover_core ?max_conflicts sb (conjuncts : T.t list) : T.t list option =
  Mutex.lock sb.sb_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sb.sb_lock)
    (fun () ->
      let sat = Bitblast.sat sb.sb_ctx in
      let selector = Bitblast.fresh sb.sb_ctx in
      List.iteri
        (fun i c -> Bitblast.assert_under ~tag:i sb.sb_ctx ~selector c)
        conjuncts;
      let r = Sat.solve ?max_conflicts ~assumptions:[ selector ] sat in
      let core =
        match r with
        | Sat.Unsat ->
          let arr = Array.of_list conjuncts in
          let sub =
            List.filter_map
              (fun i ->
                if i >= 0 && i < Array.length arr then Some arr.(i) else None)
              (List.sort_uniq compare (Sat.last_cone_tags sat))
          in
          if sub = [] then None else Some sub
        | Sat.Sat | Sat.Unknown -> None
      in
      (* Permanently retire the selector: this query's root clauses
         become satisfied at level 0 and never burden later solves. *)
      Sat.add_clause sat [ Sat.lit_not selector ];
      core)

(* Bit-blast into a fresh proof-logging, antecedent-tracking instance
   and re-solve without assumptions. [blasted], when given, is the
   subset of [pre.conjuncts] actually asserted (an unsat core from the
   answering solver); the payload records it so {!check} can verify the
   subset relation. The forward proof is backward-trimmed: only the
   CNF clauses and derivation steps inside the dependency cone of the
   empty clause are kept, with no deletions — every kept derived clause
   is RUP with respect to the kept clauses before it, so the trimmed
   trace still checks as forward DRAT with 0 expected deletions.

   With [?shared], the conjuncts are encoded in (or found already
   encoded in) the shared gate store, and only their clause cone is
   replayed into the fresh instance, under the same variable numbering
   (the fresh instance pre-allocates every shared variable). The
   payload's CNF and proof still both come from the fresh instance's
   own log, so the certificate stays self-contained: sharing cuts
   encoding work, not the evidence. *)
let blast_unsat ?shared ?max_conflicts ?blasted ~preprocessed
    (pre : P.result) : (drat_payload, string) result =
  (* No core from the answering solver (one-shot queries, cache hits): try to
     discover one on the persistent shared instance before paying for a
     full-residual standalone proof solve. *)
  let blasted =
    match (blasted, shared) with
    | None, Some sb -> discover_core ?max_conflicts sb pre.P.conjuncts
    | b, _ -> b
  in
  let to_blast = match blasted with Some sub -> sub | None -> pre.P.conjuncts in
  let sat =
    match shared with
    | None ->
      let bb = Bitblast.create ~proof:true ~track:true () in
      timed prof_blast (fun () ->
          List.iter (fun c -> Bitblast.assert_term bb c) to_blast);
      Bitblast.sat bb
    | Some sb ->
      let roots, cone =
        timed prof_blast (fun () ->
            Mutex.lock sb.sb_lock;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock sb.sb_lock)
              (fun () ->
                let roots =
                  List.map (Bitblast.lit_of_bool sb.sb_ctx) to_blast
                in
                (roots, Bitblast.clause_cone sb.sb_ctx roots)))
      in
      (* Renumber the cone compactly. The shared store numbers gates
         across every certificate it has ever served; reusing that
         numbering would make each fresh instance (and each payload's
         [nvars]) carry the whole history rather than its own cone. *)
      let map = Hashtbl.create 256 in
      let next = ref 0 in
      let mvar v =
        match Hashtbl.find_opt map v with
        | Some m -> m
        | None ->
          let m = !next in
          incr next;
          Hashtbl.add map v m;
          m
      in
      let mlit l = Sat.lit (mvar (Sat.lit_var l)) (Sat.lit_is_pos l) in
      (match blasted with
      | Some _ -> incr prof_core_certs
      | None -> incr prof_full_certs);
      prof_cone_clauses := !prof_cone_clauses + List.length cone;
      timed prof_setup (fun () ->
          let tl = mlit (Bitblast.const_lit sb.sb_ctx true) in
          let cone = List.map (List.map mlit) cone in
          let roots = List.map mlit roots in
          let sat = Sat.create () in
          Sat.enable_proof sat;
          Sat.enable_tracking sat;
          for _ = 1 to !next do
            ignore (Sat.new_var sat)
          done;
          Sat.add_clause sat [ tl ];
          List.iter (fun c -> Sat.add_clause sat c) cone;
          List.iter (fun l -> Sat.add_clause sat [ l ]) roots;
          sat)
  in
  match timed prof_sat (fun () -> Sat.solve ?max_conflicts sat) with
  | Sat.Unsat ->
    let untrimmed, _ = Sat.proof_sizes sat in
    let cnf, steps, deletions =
      match timed prof_trim (fun () -> Sat.trimmed_proof sat) with
      | Some (cnf, adds) ->
        ( cnf,
          List.map
            (function
              | Sat.P_add lits -> Drat.Add lits
              | Sat.P_delete _ -> assert false)
            adds,
          0 )
      | None ->
        (* Tracking captured no cone (cannot happen on an
           assumption-free Unsat, but degrade to the forward log). *)
        ( Sat.proof_cnf sat,
          List.map
            (function
              | Sat.P_add lits -> Drat.Add lits
              | Sat.P_delete lits -> Drat.Delete lits)
            (Sat.proof_steps sat),
          Sat.num_learned_deleted sat + Sat.num_problem_deleted sat )
    in
    Ok
      {
        nvars = Sat.num_vars sat;
        cnf;
        steps;
        deletions;
        residual = pre.P.conjuncts;
        blasted;
        untrimmed;
        trace = pre.P.trace;
        preprocessed;
      }
  | Sat.Sat ->
    if blasted = None then error "certifying re-solve answered Sat"
    else error "unsat core re-solve answered Sat"
  | Sat.Unknown -> error "certifying re-solve exhausted its conflict budget"

(* Produce a certificate that has already passed {!check}, walking the
   fallback chain: folded, interval replay, a proof-cache hit (a
   previously checked trimmed proof over the same preprocessed key,
   re-checked in full against this query's own elimination trace — a
   tampered cached proof is rejected, never trusted), DRAT over the
   answering solver's unsat core, DRAT over the preprocessed residual,
   DRAT over the raw conjunction. Each candidate is validated before
   acceptance, so a producer/checker divergence (e.g. the replayed
   interval analysis is weaker than the solver's, or a stale core no
   longer refutes) degrades to the next, more expensive certificate
   instead of a bogus one.

   [pre] lets the caller hand over the preprocessing result of the
   answering solve, so the certified residual — and the proof-cache
   key — are exactly the ones the query cache saw, and the pass is not
   re-run. [core] is the answering solver's unsat core over
   [pre.conjuncts] (see [Solver.last_core]). *)

let produce ?(preprocess = true) ?max_conflicts ?shared ?pre:pre0 ?core
    ?pcache_find ?pcache_store ?(pcache_hit = ref false)
    ?(solve_seconds = ref 0.) ?(check_seconds = ref 0.) (query : T.t list) :
    (t, string) result =
  let key = T.and_ query in
  let checked cert =
    let t0 = now () in
    let r = check cert in
    check_seconds := !check_seconds +. (now () -. t0);
    match r with Ok () -> Ok cert | Error e -> Error (kind cert ^ ": " ^ e)
  in
  let drat ?sb pre ?blasted ~preprocessed () =
    if T.is_true pre.P.key then
      error "preprocessing reduced the query to true; nothing to refute"
    else
      let t0 = now () in
      let r = blast_unsat ?shared:sb ?max_conflicts ?blasted ~preprocessed pre in
      solve_seconds := !solve_seconds +. (now () -. t0);
      let* payload = r in
      checked { query; key; reason = R_drat payload }
  in
  (* One preprocessing pass shared by every candidate that wants it. *)
  let pre =
    lazy (match pre0 with Some p -> p | None -> P.run query)
  in
  let interval conjs residual ~trace ~preprocessed () =
    match timed prof_interval (fun () -> I.explain (T.and_ conjs)) with
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
  let candidates =
    [
      (fun () ->
        if T.is_false key then checked { query; key; reason = R_folded }
        else error "folded: conjunction is not literally false");
      (fun () -> interval query query ~trace:[] ~preprocessed:false ());
      (fun () ->
        if not preprocess then error "interval-pre: preprocessing disabled"
        else
          let p = Lazy.force pre in
          interval p.P.conjuncts p.P.conjuncts ~trace:p.P.trace
            ~preprocessed:true ());
      (fun () ->
        match pcache_find with
        | None -> error "pcache: no proof cache"
        | Some find ->
          if not preprocess then error "pcache: preprocessing disabled"
          else
            let p = Lazy.force pre in
            (match find p.P.key.T.id with
            | None -> error "pcache: miss"
            | Some payload -> (
              (* Same preprocessed key, so the cached residual's
                 conjunction is hash-cons-equal to this query's; swap in
                 this query's own elimination trace and re-check in
                 full. *)
              match
                checked
                  {
                    query;
                    key;
                    reason =
                      R_drat
                        { payload with trace = p.P.trace; preprocessed = true };
                  }
              with
              | Ok cert ->
                pcache_hit := true;
                Ok cert
              | Error e -> Error e)));
      (fun () ->
        match core with
        | None -> error "drat-core: no core from the answering solver"
        | Some [] -> error "drat-core: empty core"
        | Some sub ->
          if not preprocess then error "drat-core: preprocessing disabled"
          else drat ?sb:shared (Lazy.force pre) ~blasted:sub ~preprocessed:true ());
      (fun () ->
        if not preprocess then error "drat: preprocessing disabled"
        else drat ?sb:shared (Lazy.force pre) ~preprocessed:true ());
      (* Last-resort raw blast stays unshared on purpose: it must hold
         even if the shared gate store is somehow corrupted. *)
      (fun () -> drat (P.identity query) ~preprocessed:false ());
    ]
  in
  let rec walk errs = function
    | [] -> error "uncertified (%s)" (String.concat "; " (List.rev errs))
    | c :: rest -> (
      match c () with Ok cert -> Ok cert | Error e -> walk (e :: errs) rest)
  in
  let r = walk [] candidates in
  (* Remember freshly produced-and-checked preprocessed proofs under
     their preprocessed key for future queries with the same residual. *)
  (match (r, pcache_store) with
  | Ok { reason = R_drat payload; _ }, Some store
    when (not !pcache_hit) && payload.preprocessed ->
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
  mutable cached : int;
  mutable pcache_hits : int;
      (** discharged by the proof cache: a previously checked trimmed
          proof over the same preprocessed key, re-checked per hit *)
  mutable proof_clauses : int;
  mutable proof_deletions : int;
  mutable trimmed_clauses : int;
      (** proof additions kept after backward trimming (sums [steps]) *)
  mutable untrimmed_clauses : int;
      (** proof additions in the forward logs before trimming *)
  mutable solve_seconds : float;
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
  preprocess : bool;
  max_conflicts : int option;
  memo : (int, bool) Hashtbl.t;  (* raw key id -> certified? *)
  pcache : (int, drat_payload) Hashtbl.t;
      (* preprocessed key id -> checked trimmed proof; aligned with the
         query cache's key so solver cache hits become proof-cache hits *)
  shared : shared_blast;  (* gate store reused across productions *)
  sum : summary;
  lock : Mutex.t;
}

let create_collector ?(preprocess = true) ?max_conflicts () =
  {
    preprocess;
    max_conflicts;
    memo = Hashtbl.create 64;
    pcache = Hashtbl.create 64;
    shared = create_shared_blast ();
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
let record_fresh col outcome ~pcache_hit solve_s check_s =
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
    | R_folded ->
      s.folded <- s.folded + 1;
      g.S.cert_folded <- g.S.cert_folded + 1
    | R_interval _ ->
      s.interval <- s.interval + 1;
      g.S.cert_interval <- g.S.cert_interval + 1
    | R_drat p ->
      s.drat <- s.drat + 1;
      g.S.cert_drat <- g.S.cert_drat + 1;
      if pcache_hit then begin
        s.pcache_hits <- s.pcache_hits + 1;
        g.S.cert_pcache_hits <- g.S.cert_pcache_hits + 1
      end;
      let adds =
        List.length
          (List.filter (function Drat.Add _ -> true | _ -> false) p.steps)
      in
      let dels = p.deletions in
      s.proof_clauses <- s.proof_clauses + adds;
      s.proof_deletions <- s.proof_deletions + dels;
      g.S.cert_proof_clauses <- g.S.cert_proof_clauses + adds;
      g.S.cert_proof_deletions <- g.S.cert_proof_deletions + dels;
      if not pcache_hit then begin
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
   or the producer/checker failure chain. [pre] and [core] come from
   the answering solver when available (see {!Vdp_smt.Solver.last_pre}
   and [last_core]): they let the producer skip re-preprocessing, blast
   only the unsat core, and hit the proof cache on the same key the
   query cache used. *)
let certify_refutation ?pre ?core col (query : T.t list) : (t, string) result =
  let key = T.and_ query in
  let prior = locked col (fun () -> Hashtbl.find_opt col.memo key.T.id) in
  match prior with
  | Some ok ->
    locked col (fun () -> record_cached col ok);
    if ok then Ok { query; key; reason = R_cached key.T.id }
    else error "previously failed to certify this conjunction"
  | None ->
    let solve_s = ref 0. and check_s = ref 0. in
    let pcache_hit = ref false in
    let pcache_find id = locked col (fun () -> Hashtbl.find_opt col.pcache id) in
    let pcache_store id payload =
      locked col (fun () -> Hashtbl.replace col.pcache id payload)
    in
    let outcome =
      produce ~preprocess:col.preprocess ?max_conflicts:col.max_conflicts
        ~shared:col.shared ?pre ?core ~pcache_find ~pcache_store ~pcache_hit
        ~solve_seconds:solve_s ~check_seconds:check_s query
    in
    locked col (fun () ->
        (* A racing domain may have finished the same key first; keep
           the first verdict, but account this (real) work too. *)
        if not (Hashtbl.mem col.memo key.T.id) then
          Hashtbl.replace col.memo key.T.id (Result.is_ok outcome);
        record_fresh col outcome ~pcache_hit:!pcache_hit !solve_s !check_s);
    outcome

let certified col query = Result.is_ok (certify_refutation col query)

let summary col : summary =
  locked col (fun () -> { col.sum with attempted = col.sum.attempted })
