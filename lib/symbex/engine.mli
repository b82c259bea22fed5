(** The symbolic-execution engine — Step 1 of the paper's verification.

    [explore] runs one element's IR program on a fully symbolic packet
    (unconstrained bytes [p\[i\]], length [p.len] bounded by
    [config.max_len]) and enumerates its {e segments}: complete paths
    through the element, each with its path constraint, packet
    transformation, outcome and instruction count.

    Loops with branching bodies are handled by the paper's mini-element
    decomposition: the body is symbexed once from a havocked iteration
    state, a strictly increasing bounded measure (found with the
    solver) bounds the trip count, a solver-verified value-range
    invariant excludes spurious wrap-arounds, and execution resumes
    from the loop exits with packet contents havocked. Such segments
    carry an instruction {e interval} ([instr_lo], [instr_hi]) instead
    of an exact count. Counted straight-line loops (checksums) are
    simply unrolled and stay exact. *)

module T := Vdp_smt.Term

type crash =
  | C_assert of string
  | C_oob of string
  | C_headroom
  | C_div0
  | C_abort of string

type outcome =
  | O_emit of int
  | O_drop
  | O_crash of crash

(** How a segment transforms the packet, in window-relative terms. *)
type out_state = {
  head_delta : int;           (** net Pull (+) / Push (-) in bytes *)
  min_delta : int;
      (** most negative head excursion along the path, [<= 0] and
          [<= head_delta]: the headroom this segment needs on entry.
          An element's own symbex starts from the full configured
          headroom, so composition must check the remaining budget
          against this. *)
  len_out : T.t;              (** output window length *)
  writes : (int * T.t) list;  (** post-window offset -> byte term *)
  havoc : (int * int) option;
      (** [(epoch, head)] when a loop summary forgot the packet
          contents: unwritten output byte [j] is then the deterministic
          havoc variable for absolute offset [head + j]. *)
  meta_out : (Vdp_ir.Types.meta * T.t) list;
}

type segment = {
  cond : T.t list;            (** path constraint, oldest first *)
  out_state : out_state;
  outcome : outcome;
  instr_lo : int;
  instr_hi : int;
  kv_log : Sstate.kv_event list;  (** store interactions, oldest first *)
  summarized : bool;          (** true iff a loop summary contributed *)
}

type config = {
  headroom : int;
  max_len : int;            (** assumed bound on the input length *)
  max_paths : int;
  max_offset_fork : int;    (** candidates when concretising offsets *)
  max_unroll : int;
  summarize_loops : bool;
  branchy_threshold : int;  (** body branches >= this trigger summarisation *)
  solver_budget : int;      (** conflict budget for summary-time checks *)
}

val default_config : config

type result = {
  segments : segment list;
  paths : int;       (** completed paths *)
  incomplete : int;  (** abandoned paths — a nonzero value means any
                         proof built on these segments is partial *)
  forks : int;
  abandon_reasons : (string * int) list;
  static_deps : (int * Vdp_bitvec.Bitvec.t) list;
      (** static-state slices baked into the segments:
          ({!Vdp_ir.Static_data} id, concrete key) per exact static
          read. Mutating one of these slices invalidates any cache
          entry built from this result; symbolic-key reads return
          fresh unconstrained values and depend on no slice. *)
}

val explore : ?config:config -> Vdp_ir.Types.program -> result

val crash_to_string : crash -> string
val pp_outcome : Format.formatter -> outcome -> unit

val crash_matches : crash -> Vdp_ir.Types.crash -> bool
(** Does a concrete interpreter crash correspond to the symbolically
    predicted one? Out-of-bounds crashes match on kind only (the
    interpreter's message embeds concrete offsets). *)

val outcome_matches : outcome -> Vdp_ir.Types.outcome -> bool
(** Lift {!crash_matches} to whole outcomes. *)
