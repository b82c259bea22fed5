(** Satisfiability of quantifier-free bit-vector constraints.

    The pipeline is: smart-constructor folding (already applied by
    {!Term}), word-level preprocessing ({!Preprocess}: equality
    substitution, constant propagation, unconstrained-variable
    elimination, checksum-word elimination and component slicing), a memoizing query cache keyed
    on the preprocessed conjunction, a cheap interval refutation, then
    bit-blasting (with AIG-style gate sharing) onto the CDCL SAT core.
    Every [Sat] answer is completed with the eliminated variables'
    bindings and re-validated by evaluating the original constraints
    under the completed model, so neither a preprocessing nor a
    blasting bug can produce a bogus counterexample.

    Two front ends share that pipeline:
    - {!check} — one-shot: blasts the preprocessed conjunction into a
      fresh SAT instance and solves it;
    - {!create_ctx} / {!push} / {!assert_terms} / {!check_ctx} /
      {!pop} — incremental: one bit-blaster and SAT instance persist
      across checks. Each check preprocesses the live conjunction,
      asserts the residual conjuncts under a fresh throwaway selector
      literal, solves with that single assumption and then permanently
      retires the selector. Learned clauses, variable activities, gate
      encodings and the blasted term DAG all carry over between checks,
      which is what makes sibling composite paths (sharing long
      constraint prefixes) cheap to check in sequence.

    Every [Unsat] carries the evidence it was decided with: the folded
    conjunction, the interval explanation of the raw conjunction or the
    preprocessed residual, or — in a context created with
    [track_core:true] — the SAT core's trimmed proof. The query cache
    stores that evidence with the answer, and {!last_refutation} hands
    it to the certificate checker in [Vdp_cert]. The checker, not this
    module, is what an [Unsat] rests on. *)

type outcome =
  | Sat of Model.t
  | Unsat
  | Unknown  (** conflict budget exhausted *)

type stats = {
  mutable calls : int;
  mutable sat_answers : int;
  mutable unsat_answers : int;
  mutable unknown_answers : int;
  mutable interval_refutations : int;
  mutable folded : int;  (** decided by preprocessing + folding alone *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
  mutable eliminated_conjuncts : int;
      (** equality-substituted + unconstrained conjuncts dropped *)
  mutable sliced_conjuncts : int;  (** dropped by component slicing *)
  mutable solved_words : int;
      (** checksum words left to model completion, their equations
          relaxed away *)
  mutable gate_hits : int;  (** structural gate-cache hits while blasting *)
  mutable gate_misses : int;  (** distinct gates actually encoded *)
  mutable sat_vars : int;  (** SAT variables created while solving *)
  mutable sat_clauses : int;  (** problem clauses added while solving *)
  mutable learned_deleted : int;  (** learned clauses deleted by reduction *)
  mutable preprocess_time : float;  (** wall seconds per phase... *)
  mutable blast_time : float;
  mutable sat_time : float;
  mutable cert_attempted : int;
      (** certification counters, bumped by [Vdp_cert]: refutations a
          certificate was requested for *)
  mutable cert_checked : int;  (** certificates independently validated *)
  mutable cert_failed : int;  (** produced but rejected, or unproducible *)
  mutable cert_cached : int;  (** discharged by provenance to a checked proof *)
  mutable cert_drat : int;  (** discharged by a checked DRAT proof *)
  mutable cert_interval : int;  (** discharged by interval-explanation replay *)
  mutable cert_folded : int;  (** discharged by constant folding *)
  mutable cert_proof_clauses : int;
      (** steps in checked DRAT proofs, after backward trimming *)
  mutable cert_solve_time : float;
      (** wall seconds reading proofs out of the answering context *)
  mutable cert_check_time : float;
      (** wall seconds in the independent checker *)
  mutable cert_pcache_hits : int;
      (** DRAT certificates built from a proof stored with a query-cache
          hit (re-checked in full against this query) *)
  mutable cert_untrimmed_clauses : int;
      (** derived clauses in the solvers' logs before trimming *)
  mutable cert_drat_ctx : int;
      (** discharged by DRAT read from the context that answered *)
  mutable sched_spawned : int;
      (** scheduler counters, copied from [Vdp_core.Pool] after a
          parallel run: tasks spawned *)
  mutable sched_executed : int;  (** tasks executed *)
  mutable sched_stolen : int;
      (** tasks executed by a domain other than their spawner *)
  mutable sched_busy : float;  (** cumulative task execution seconds *)
  mutable sched_idle : float;  (** cumulative runner wait seconds *)
  mutable sched_hist : int array;
      (** task-duration histogram: <1ms, <10ms, <100ms, <1s, rest *)
}

val stats : stats
(** Process-wide aggregate over every front end and context; reset with
    {!reset_stats}. Per-context counters live in {!ctx_stats}. *)

val reset_stats : unit -> unit
val fresh_stats : unit -> stats

(** {1 Query cache} *)

(** Memoizes definite ([Sat]/[Unsat]) answers keyed on the hash-consed
    id of the *preprocessed* constraint conjunction, so queries that
    differ only in eliminated conjuncts collide; cached [Sat] models
    are re-completed per hit, and an [Unsat] keeps the evidence it was
    decided with: the residual's interval explanation or the proof of
    the context that solved it (see {!last_refutation}). [Unknown]
    answers are never cached because they depend on the conflict
    budget. Bounded, with FIFO eviction. *)
module Cache : sig
  type t

  val create : ?capacity:int -> unit -> t
  val clear : t -> unit
  val length : t -> int

  val invalidate_static :
    t -> sid:int -> key:Vdp_bitvec.Bitvec.t -> int
  (** Drop every entry whose dep list includes the static-state slice
      ([Vdp_ir.Static_data] id, concrete key); returns how many were
      dropped. Called on config mutation so a rule change invalidates
      only dependent queries. *)

  val invalidations : t -> int
  (** Total entries dropped by {!invalidate_static} over the cache's
      lifetime. *)
end

val shared_cache : Cache.t
(** A default process-wide cache; identical composite conditions recur
    across properties checked on the same pipeline. *)

(** {1 One-shot checking} *)

val check :
  ?max_conflicts:int -> ?cache:Cache.t ->
  ?deps:(int * Vdp_bitvec.Bitvec.t) list -> ?preprocess:bool ->
  Term.t list -> outcome
(** Satisfiability of the conjunction. No caching unless [cache] is
    supplied; word-level preprocessing is on unless [preprocess:false].
    [deps] tags the cache entry with the static-state slices the
    conjunction was built from (see {!Cache.invalidate_static}). *)

val is_sat : ?max_conflicts:int -> Term.t list -> bool
(** [Unknown] counts as satisfiable (conservative for provers that must
    not miss violations). *)

val is_unsat : ?max_conflicts:int -> Term.t list -> bool
(** [true] only on a definite [Unsat]. *)

(** {1 Incremental contexts} *)

type ctx

val create_ctx : ?cache:Cache.t -> ?track_core:bool -> unit -> ctx
(** A fresh context with one root scope. Contexts are not thread-safe;
    create one per exploration. [track_core] turns on antecedent
    tracking and clause logging in the underlying SAT solver: every
    [Unsat] from {!check_ctx} then exposes its evidence via
    {!last_refutation}. Such a context treats a cached [Unsat] stored
    without evidence as a miss: it decides the query itself and
    upgrades the cache entry. *)

val push : ctx -> unit
(** Open a new scope; subsequent {!assert_terms} go into it. *)

val pop : ctx -> unit
(** Discard the innermost scope and its assertions. Learned clauses
    survive. Raises [Invalid_argument] on the root scope. *)

val assert_terms : ctx -> Term.t list -> unit
(** Add constraints to the innermost scope. Terms are recorded
    word-level; bit-blasting happens per check on the preprocessed
    conjunction (each distinct term and gate is still only encoded
    once, ever, thanks to the persistent blaster). *)

val assert_term : ctx -> Term.t -> unit

val check_ctx :
  ?max_conflicts:int -> ?deps:(int * Vdp_bitvec.Bitvec.t) list -> ctx ->
  outcome
(** Satisfiability of the conjunction of all live scopes' assertions. *)

val depth : ctx -> int
(** Number of scopes pushed (0 = only the root scope). *)

val asserted : ctx -> Term.t list
(** All live assertions, innermost scope first, newest first. *)

val ctx_stats : ctx -> stats
(** This context's own counters (also folded into {!stats}). *)

(** An in-context refutation: the SAT core's dependency cone for one
    check, read out before the check's selector was retired. *)
type proof = {
  trimmed : Sat.trimmed;
      (** the cone's CNF and derivation steps; [goal] is the one-literal
          clause [~selector]. The CNF mentions the selector only in the
          binary root clauses [~selector \/ l] of [core]'s conjuncts *)
  core : Term.t list;
      (** the residual conjuncts whose root clauses lie in the cone *)
  logged : int;
      (** derived clauses the context had logged: the proof's size
          before trimming *)
  extract_seconds : float;
  stored : bool;
      (** read from a query-cache hit; another context extracted it *)
}

(** The evidence an [Unsat] was decided with, named by the stage that
    decided it. *)
type refutation =
  | Folded  (** the raw conjunction folds to [false] *)
  | Interval of Interval.explanation
      (** interval refutation of the raw conjunction *)
  | Folded_pre of Preprocess.result
      (** the preprocessed residual folds to [false] *)
  | Interval_pre of Preprocess.result * Interval.explanation
      (** interval refutation of the residual, made now or stored with
          a query-cache hit *)
  | Drat of Preprocess.result * proof
      (** the SAT core refuted the residual, now or (stored with a
          query-cache hit) in another certifying context *)

val last_refutation : ctx -> refutation option
(** The evidence of the most recent {!check_ctx}, when it answered
    [Unsat] and had any: a SAT-decided [Unsat] has a proof only in a
    context created with [track_core:true], and a cache hit only when
    the context that decided it kept one. *)

val pp_outcome : Format.formatter -> outcome -> unit
