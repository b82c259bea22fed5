(** CDCL SAT solver (MiniSat-style core).

    Literal encoding: variable [v] yields the positive literal [2 * v]
    and the negative literal [2 * v + 1]. Variables are created with
    {!new_var} before use. The solver is incremental: clauses may be
    added between {!solve} calls, and [solve ~assumptions] checks
    satisfiability under a set of assumed literals while retaining
    every learned clause for subsequent calls (the MiniSat interface).
    Scoped solving is built on top of this by guarding clause groups
    with fresh selector variables and assuming the active selectors.

    [solve ~max_conflicts] gives up with [Unknown] after the budget is
    exhausted — used by the verification benchmarks to emulate the
    "did not finish" outcome of the monolithic baseline. *)

type t

val create : ?reduce_interval:int -> unit -> t
(** [reduce_interval] is the conflict budget before the first
    learned-clause database reduction (default 2000); each reduction
    deletes the lowest-activity half of the live learned clauses
    (locked and binary clauses are kept) and grows the budget. *)

val new_var : t -> int
val lit : int -> bool -> int
(** [lit v positive]. *)

val lit_not : int -> int
val lit_var : int -> int
val lit_is_pos : int -> bool

val add_clause : ?tag:int -> t -> int list -> unit
(** Adding the empty clause (or a clause that simplifies to it at level
    0) makes the instance trivially unsat. May be called after a [Sat]
    answer; any leftover search trail is undone first. [tag] labels the
    clause for unsat-core extraction via {!last_cone_tags} (only
    meaningful when {!enable_tracking} is on). *)

type result = Sat | Unsat | Unknown

val solve : ?max_conflicts:int -> ?assumptions:int list -> t -> result
(** Satisfiability of the clause database under the assumed literals
    (default none). [Unsat] under non-empty assumptions does not mean
    the database itself is unsat — dropping assumptions may restore
    satisfiability. Learned clauses, variable activities and saved
    phases carry over between calls. *)

val value : t -> int -> bool
(** Value of a variable in the satisfying assignment; only meaningful
    after [solve] returned [Sat]. Unassigned variables read as [false]. *)

val simplify : t -> unit
(** Remove (lazily) every clause satisfied by the level-0 assignment.
    Cheap — one scan of the clause arena — and sound to call between
    {!solve} calls; used to sweep out clauses guarded by permanently
    negated selector literals. *)

val num_vars : t -> int

val num_problem_clauses : t -> int
(** Live non-learned clauses (units absorbed into the level-0 trail are
    not counted). *)

val num_learned_deleted : t -> int
(** Cumulative learned clauses deleted by database reduction or
    {!simplify}. *)

val num_reductions : t -> int

(** {1 Antecedent tracking: unsat cores and backward proof trimming}

    The solver's only proof log. When enabled (before any clause is
    added), every asserted clause and every derived clause — learned
    clauses, units learned at level 0, clauses shortened by level-0
    literals on assertion, and the empty clause when the database is
    refuted outright — receives a serial and is logged under it, and
    each derivation records the serials it resolved on. Deletions by
    database reduction or {!simplify} are not logged: a deleted clause
    stays in the log, where later derivations may still cite it. On
    every [Unsat] exit — including [Unsat] under assumptions — the
    solver captures the backward dependency {e cone} of the final
    conflict before undoing any assignment. The cone supports two
    queries, valid until the next {!solve} or until another clause
    refutes the database. An [Unknown] answer captures no cone. This
    module never checks its own proofs; see [Vdp_cert.Drat].

    A {!solve} under non-empty [assumptions] that answers [Unsat] does
    {e not} derive the empty clause (the refutation is relative to the
    assumptions); what it derives is the negated assumptions, which is
    what {!trimmed_proof} hands out as its goal. *)

val enable_tracking : t -> unit
val tracking : t -> bool

val num_derived : t -> int
(** Derived clauses logged by tracking so far: what a proof would
    carry without trimming. *)

val last_cone_tags : t -> int list
(** Tags (from [add_clause ~tag]) of the asserted clauses inside the
    last [Unsat]'s dependency cone — an unsat core over whatever the
    caller tagged. Unordered, deduplicated. [[]] if tracking is off or
    the last answer was not [Unsat]. *)

type trimmed = {
  nvars : int;  (** variables after dense renumbering *)
  cnf : int list list;  (** asserted clauses in the cone, oldest first *)
  steps : (int array * int array) list;
      (** derived clauses in the cone, oldest first, each with its
          hints; the last is the empty clause *)
  goal : int array;
      (** the negated assumptions (renumbered); [[||]] without
          assumptions *)
}

val trimmed_proof : ?assumptions:int list -> t -> trimmed option
(** Backward-trimmed refutation of the last [Unsat], in O(cone): the
    logged clauses inside its dependency cone, variables renumbered
    densely, as an LRAT proof. Clause ids number [cnf] from 0, then the
    goal's negated literals as unit clauses, then [steps]. A step's
    hints are ids of earlier clauses that, visited in order, each
    become unit or falsified once the step's literals are assumed
    false: unit propagation over exactly them reaches a conflict. A
    refutation under an assumption the clauses imply false ends in a
    synthesized empty step that cites the assumption's goal unit.
    [assumptions] must be the ones that [solve] was given. [None]
    unless tracking is on and a cone was captured. *)
