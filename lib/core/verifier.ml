(** The dataplane verifier: Step-1 summaries + Step-2 composition.

    Three target properties from the paper:
    - {b crash freedom} — no input packet can crash the pipeline;
    - {b bounded execution} — a provable upper bound on instructions
      executed per packet, with the packet that attains it;
    - {b reachability} — e.g. "well-formed packets to X are never
      dropped", checked for a specific configuration.

    Step 2 is one algorithm, whatever the property: compose the element
    summaries' segments along paths and ask the solver whether the
    suspect composite paths are feasible. A property only decides which
    segment ends are suspect and what a feasible one means, so each is
    a {!property} — an [expand] step that yields one composite node's
    items in segment order ("check this state" or "descend to node [d]
    with this state") plus a [check] that runs one feasibility decision
    and returns a mergeable result — run by one sequential and one
    parallel driver (see {!section-step2}). The drivers are polymorphic
    in the node type, so the fabric queries of {!Vdp_topo.Query} run on
    them too, with a (pipe, node, crossings) hop as the node.

    The sequential driver carries one {e incremental} solver context
    down the composition DFS: each descent pushes a scope and asserts
    only the new segment's constraints, each return pops it, and the
    solver keeps its blasted term DAG and learned clauses throughout. A
    shared query cache additionally memoizes identical composite
    conditions (common across properties on the same pipeline);
    [config.cache = false] disables it.

    Crash-freedom exploration only descends into subtrees that can
    still reach a suspect segment — the pruning that, combined with
    per-element summary caching, gives the paper's exponential-to-
    linear collapse.

    With [config.jobs > 1] both steps run on a {!Pool} of that many
    domains. Step 1 fans the distinct element symbex jobs out (they
    share nothing but the domain-safe term table). Step 2 runs as a
    fine-grained task graph on the pool's helping scheduler: every
    composite tree node and every terminal feasibility check is its
    own dynamically-spawned task, each pool domain keeps one
    persistent incremental solver context that it re-seeds per task,
    and every parent merges its children's results in spawn (= DFS)
    order — so verdicts, violation lists and bound witnesses are
    ordered exactly as the sequential DFS produces them. See
    {!section-worksteal} below. *)

module B = Vdp_bitvec.Bitvec
module T = Vdp_smt.Term
module Solver = Vdp_smt.Solver
module Engine = Vdp_symbex.Engine
module S = Vdp_symbex.Sstate
module Ir = Vdp_ir.Types
module Click = struct
  module Pipeline = Vdp_click.Pipeline
  module Element = Vdp_click.Element
  module Runtime = Vdp_click.Runtime
end

type config = {
  engine : Engine.config;
  solver_budget : int;  (** conflict budget per composite check *)
  assume : T.t list;    (** extra assumptions on the input packet *)
  replay : bool;
      (** replay each pipeline witness through {!Witness.replay}: derive
          the initial private state the violating path depends on, load
          it, and require the concrete runtime to reproduce the claimed
          outcome before tagging the violation confirmed. Off, a
          stateless runtime spot-check of crash witnesses is all that
          runs. Fabric queries ({!Vdp_topo.Query}) ignore it: their
          witnesses always replay from boot state. *)
  max_composite_paths : int;
  cache : bool;  (** memoize Step-2 queries in [Solver.shared_cache] *)
  preprocess : bool;
      (** word-level solver preprocessing (equality substitution,
          constant propagation, slicing) before bit-blasting each
          Step-2 query *)
  jobs : int;
      (** domains used for Step-1 symbex and Step-2 suspect checking;
          1 (the default) keeps everything on the calling domain.
          Parallel runs enforce [max_composite_paths] through one
          atomic counter shared by all tasks, so the budget is global
          (tasks already in flight when it trips still finish). *)
  certify : bool;
      (** produce and independently check a proof certificate for every
          refuted suspect-path query ({!Vdp_cert.Certificate}); the
          per-run summary lands in the report's [cert] field. A verdict
          of [Proved] (or an exact bound) is only as trustworthy as its
          refutations, so this is the knob that upgrades "the solver
          said so" to "the solver said so and a separate checker agreed
          on every answer". *)
}

let default_config =
  {
    engine = Engine.default_config;
    solver_budget = 2_000_000;
    assume = [];
    replay = true;
    max_composite_paths = 2_000_000;
    cache = true;
    preprocess = true;
    jobs = 1;
    certify = false;
  }

type violation = {
  node : int;
  element : string;
  outcome : Engine.outcome;
  cond : T.t list;
  witness : Vdp_packet.Packet.t option;
  confirmed : bool;
      (** the witness reproduced the outcome on the concrete runtime *)
  stateful : bool;  (** depends on values read from private state *)
  replayed : Witness.t option;
      (** full replay record (run, loaded state, divergence point) when
          [config.replay] was on *)
}

type verdict =
  | Proved
  | Violated of violation list
  | Unknown of string

type stats = {
  mutable elements : int;
  mutable unique_summaries : int;
  mutable segments_total : int;
  mutable suspects : int;
  mutable composite_paths : int;
  mutable suspect_checks : int;
  mutable refuted : int;
  mutable unknown_checks : int;
  mutable replays : int;
  mutable replays_confirmed : int;
  mutable step1_time : float;
  mutable step2_time : float;
}

let fresh_stats () =
  {
    elements = 0;
    unique_summaries = 0;
    segments_total = 0;
    suspects = 0;
    composite_paths = 0;
    suspect_checks = 0;
    refuted = 0;
    unknown_checks = 0;
    replays = 0;
    replays_confirmed = 0;
    step1_time = 0.;
    step2_time = 0.;
  }

type report = {
  verdict : verdict;
  stats : stats;
  cert : Vdp_cert.Certificate.summary option;
      (** certification summary when [config.certify] was on *)
}

(* {1 Shared plumbing} *)

(* Wall clock, not CPU time: the bench harness compares against
   [Unix.gettimeofday]-based timings, and CPU time under-reports once
   solving is incremental or parallel. *)
let now () = Unix.gettimeofday ()

let make_ctx cfg =
  let cache = if cfg.cache then Some Solver.shared_cache else None in
  Solver.create_ctx ?cache ~preprocess:cfg.preprocess ~track_core:cfg.certify
    ()

(* Feasibility of the conjunction the context holds; [deps] are the
   static-state slices it was built from. *)
let solve ctx ~max_conflicts ~deps = Solver.check_ctx ~deps ~max_conflicts ctx

(* Decide feasibility with a single unbounded query; only a satisfiable
   answer pays extra for witness shrinking (retry under increasingly
   loose length bounds and keep the first satisfiable one — purely
   cosmetic, soundness only needs the unbounded answer). Checks on a
   crash-free pipeline are overwhelmingly unsat, so the common case
   costs exactly one query instead of one per bound. *)
let solve_small ctx ~max_conflicts ~deps =
  match solve ctx ~max_conflicts ~deps with
  | (Solver.Unsat | Solver.Unknown) as r -> r
  | Solver.Sat m ->
    let rec shrink = function
      | [] -> Solver.Sat m
      | b :: rest -> (
        Solver.push ctx;
        Solver.assert_terms ctx
          [ T.ule (T.var S.len_var 16) (T.bv_int ~width:16 b) ];
        let r = solve ctx ~max_conflicts ~deps in
        Solver.pop ctx;
        match r with
        | Solver.Sat m' -> Solver.Sat m'
        | Solver.Unsat | Solver.Unknown -> shrink rest)
    in
    shrink [ 16; 64; 128 ]

(* Certification plumbing: one thread-safe collector per run when
   [config.certify]; every [Unsat] suspect-path answer sends its refuted
   conjunction through it. Only the outer, unbounded query is certified
   — the witness-shrinking retries in [solve_small] run only after a
   [Sat], and a [Sat] is vouched for by witness replay, not by a
   proof. *)
let make_cert cfg =
  if cfg.certify then
    Some
      (Vdp_cert.Certificate.create_collector ~preprocess:cfg.preprocess
         ~max_conflicts:cfg.solver_budget ())
  else None

(* The certifier for refutations answered by [ctx]: it certifies
   exactly the conjunction the context decided — a pipeline path's
   condition, or a fabric path's plus its boot grounding. It hands the
   certificate producer what the answering solver already knows: the
   preprocessing result (so the proof cache is keyed exactly like the
   query cache) and the unsat core over the residual conjuncts (so only
   the core is re-blasted). All three are read synchronously, before
   the context changes or runs another check; [defer] decides where the
   produce-and-check work itself runs. *)
let certifier cert ctx ~defer =
  match cert with
  | None -> fun () -> ()
  | Some col ->
    fun () ->
      let pre = Solver.last_pre ctx and core = Solver.last_core ctx in
      let cond = Solver.asserted ctx in
      defer (fun () ->
          ignore
            (Vdp_cert.Certificate.certify_refutation ?pre ?core col cond
              : (Vdp_cert.Certificate.t, string) result))

let cert_summary cert = Option.map Vdp_cert.Certificate.summary cert

let base_assumptions cfg =
  T.ule (T.var S.len_var 16)
    (T.bv_int ~width:16 cfg.engine.Engine.max_len)
  :: cfg.assume

(* The composite state at the pipeline entry, carrying the configured
   headroom as the remaining push budget. *)
let initial_state cfg =
  Compose.initial ~assume:(base_assumptions cfg)
    ~headroom:cfg.engine.Engine.headroom ()

let step1 ?pool cfg (pl : Click.Pipeline.t) stats =
  (* From here on, static-store mutations must invalidate the caches
     the run is about to populate. *)
  Staleness.install ();
  let t0 = now () in
  let before = Summaries.size () in
  let summaries = Summaries.of_pipeline ?pool ~config:cfg.engine pl in
  stats.step1_time <- now () -. t0;
  stats.elements <- Array.length summaries;
  stats.unique_summaries <- Summaries.size () - before;
  stats.segments_total <-
    Array.fold_left
      (fun acc (e : Summaries.entry) ->
        acc + List.length e.Summaries.result.Engine.segments)
      0 summaries;
  summaries

let any_incomplete summaries =
  Array.exists
    (fun (e : Summaries.entry) -> e.Summaries.result.Engine.incomplete > 0)
    summaries

(* Does the runtime reproduce the predicted outcome for this witness? *)
let validate_crash pl pkt node =
  let inst = Click.Runtime.instantiate pl in
  match (Click.Runtime.push inst (Vdp_packet.Packet.clone pkt)).Click.Runtime.final with
  | Click.Runtime.Crashed_at (n, _) -> n = node
  | _ -> false

(* Replay one Sat model: with [config.replay], through the full
   witness-replay machinery (initial private state derived from the
   model and loaded); otherwise a stateless spot-check of crash
   witnesses. Returns (replay record, witness packet, confirmed). *)
let replay_model cfg pl (stats : stats) ~model ~st ~expect =
  let max_len = cfg.engine.Engine.max_len in
  if cfg.replay then begin
    let r = Witness.replay pl ~max_len ~model ~st ~expect in
    stats.replays <- stats.replays + 1;
    let ok = Witness.confirmed r in
    if ok then stats.replays_confirmed <- stats.replays_confirmed + 1;
    (Some r, r.Witness.packet, ok)
  end
  else
    let pkt = Compose.witness_packet model ~max_len in
    let confirmed =
      match expect with
      | Witness.Crash_at node -> validate_crash pl pkt node
      | _ -> false
    in
    (None, pkt, confirmed)

let trace_reads_kv (st : Compose.t) =
  List.exists
    (fun (_, ev) -> match ev with S.Kv_read _ -> true | _ -> false)
    st.Compose.kv_trace

let segment_reads_kv (seg : Engine.segment) =
  List.exists
    (function S.Kv_read _ -> true | S.Kv_write _ -> false)
    seg.Engine.kv_log

(* Run [f apply seg] on every segment of [node]'s summary, in segment
   order; [apply seg] composes [seg] onto [st]. *)
let iter_segments (summaries : Summaries.entry array) node st f =
  let tag = Printf.sprintf "n%d" node in
  let deps = summaries.(node).Summaries.result.Engine.static_deps in
  List.iter
    (f (fun seg -> Compose.apply ~deps st ~tag seg))
    summaries.(node).Summaries.result.Engine.segments

(* {1:step2 Step 2: one traversal for every property}

   A property is an [expand] step plus a [check], over any node type:
   a pipeline node index here, a (pipe, node, crossings) hop in
   {!Vdp_topo.Relation}. [expand node st yield] yields the items of one
   composite node in segment (DFS) order, one callback per item, so the
   sequential driver never holds all sibling states of a wide node at
   once. [check] runs one feasibility decision on a context that holds
   the item's state — it may push a scope of its own on top, as fabric
   checks do with their boot grounding — and returns a result; results
   merge in DFS order ([merge] is associative, [empty] its unit). *)

type ('n, 'c) item =
  | Check of 'c * Compose.t  (** decide this state *)
  | Descend of 'n * Compose.t  (** expand node [d] from this state *)

type env = {
  ctx : Solver.ctx;  (** holds exactly the state being checked *)
  counters : stats;  (** Step-2 counters of this task *)
  certify : unit -> unit;
      (** certify the refutation just answered: the conjunction [ctx]
          holds *)
}

type ('n, 'c, 'r) property = {
  expand : 'n -> Compose.t -> (('n, 'c) item -> unit) -> unit;
  check : env -> 'c -> Compose.t -> 'r;
  empty : 'r;
  merge : 'r -> 'r -> 'r;
}

(* The feasibility decision every property's [check] makes: count it,
   solve what the context holds, and certify a refutation. *)
let decide cfg env ~solve ~deps =
  let c = env.counters in
  c.suspect_checks <- c.suspect_checks + 1;
  match solve env.ctx ~max_conflicts:cfg.solver_budget ~deps with
  | Solver.Unsat as r ->
    c.refuted <- c.refuted + 1;
    env.certify ();
    r
  | Solver.Unknown as r ->
    c.unknown_checks <- c.unknown_checks + 1;
    r
  | Solver.Sat _ as r -> r

exception Path_budget

(* The sequential driver: a DFS on one incremental context, which holds
   exactly the constraints of [st] on entry to [visit node st]. Results
   found before the path budget trips are kept. The budget counts this
   traversal's nodes, as the parallel driver's does. *)
let sequential cfg cert prop stats root st0 =
  let ctx = make_ctx cfg in
  let certify = certifier cert ctx ~defer:(fun f -> f ()) in
  let env = { ctx; counters = stats; certify } in
  let acc = ref prop.empty in
  let visits = ref 0 in
  let enter (st : Compose.t) =
    Solver.push ctx;
    Solver.assert_terms ctx st.Compose.new_cond
  in
  let rec visit node st =
    stats.composite_paths <- stats.composite_paths + 1;
    incr visits;
    if !visits > cfg.max_composite_paths then raise Path_budget;
    prop.expand node st (fun item ->
        (match item with
        | Check (c, st') ->
          enter st';
          acc := prop.merge !acc (prop.check env c st')
        | Descend (dst, st') ->
          enter st';
          visit dst st');
        Solver.pop ctx)
  in
  let budget_hit =
    try
      enter st0;
      visit root st0;
      Solver.pop ctx;
      false
    with Path_budget -> true
  in
  (!acc, budget_hit)

(* {1:worksteal Work-stealing Step-2}

   With [jobs > 1], Step-2 is a dynamic task graph on the {!Pool}
   helping scheduler instead of a pre-partitioned frontier: every
   composite tree node ([Descend]) and every terminal feasibility check
   ([Check]) becomes its own task, spawned as its parent expands. A
   subtree task is pure [Compose] work — expand one node's segments,
   spawn a task per item, await the children and merge; only check
   tasks touch the solver.

   Each pool domain lazily builds one {e persistent} incremental
   context and re-seeds it at every check task ("clone on steal": pop
   all scopes, push one, assert the task's accumulated prefix). The
   re-seed itself is cheap — scopes are just term lists — while the
   expensive state (blasted term DAG, gate encodings, learned clauses)
   stays with the domain across every task it runs. The re-seeded
   context asserts the same conjunct list, in the same order, as the
   sequential DFS's scope stack.

   Determinism: a parent merges child results in spawn (= DFS) order,
   so violation lists, bound witnesses and counters come out exactly
   as the sequential DFS orders them. The composite-path budget is one
   atomic counter shared by every task; a task that finds it exhausted
   returns a budget-hit marker instead of expanding.

   Check tasks never await anything, so a domain that helps (runs
   another task while blocked in [Pool.await]) can never interleave
   two users of its context: only check tasks use the context, and
   they run to completion before the helping await returns.

   Certificates are produced and checked as their own pool tasks, so
   proof production/checking overlaps ongoing solving instead of
   serializing after each refutation; the futures are drained before
   the run reads its certification summary. *)

let with_jobs cfg f =
  if cfg.jobs <= 1 then f None
  else Pool.with_pool cfg.jobs (fun pool -> f (Some pool))

let reseed ctx (st : Compose.t) =
  while Solver.depth ctx > 0 do
    Solver.pop ctx
  done;
  Solver.push ctx;
  Solver.assert_terms ctx (List.rev st.Compose.cond)

(* Fold the pool's scheduler counters into the global solver stats;
   the bench harness reports them alongside the solver counters. *)
let record_sched pool =
  let ps = Pool.stats pool in
  let g = Solver.stats in
  g.Solver.sched_spawned <- g.Solver.sched_spawned + ps.Pool.spawned;
  g.Solver.sched_executed <- g.Solver.sched_executed + ps.Pool.executed;
  g.Solver.sched_stolen <- g.Solver.sched_stolen + ps.Pool.stolen;
  g.Solver.sched_busy <- g.Solver.sched_busy +. ps.Pool.busy_seconds;
  g.Solver.sched_idle <- g.Solver.sched_idle +. ps.Pool.idle_seconds;
  Array.iteri
    (fun i n -> g.Solver.sched_hist.(i) <- g.Solver.sched_hist.(i) + n)
    ps.Pool.hist

(* Step-2 counters produced by one task, merged positionally. *)
let merge_counters into (from : stats) =
  into.composite_paths <- into.composite_paths + from.composite_paths;
  into.suspect_checks <- into.suspect_checks + from.suspect_checks;
  into.refuted <- into.refuted + from.refuted;
  into.unknown_checks <- into.unknown_checks + from.unknown_checks;
  into.replays <- into.replays + from.replays;
  into.replays_confirmed <- into.replays_confirmed + from.replays_confirmed

(* The parallel driver. Every task returns (result, counters,
   budget hit). *)
let parallel pool cfg cert prop stats root st0 =
  (* One persistent context per pool domain, built on first use; a
     fresh key per run keeps runs (and their configs) isolated. *)
  let key = Domain.DLS.new_key (fun () -> make_ctx cfg) in
  let visits = Atomic.make 0 in
  let certs = ref [] and certs_mutex = Mutex.create () in
  let defer f =
    let fut = Pool.spawn pool f in
    Mutex.protect certs_mutex (fun () -> certs := fut :: !certs)
  in
  let check_task c st () =
    let counters = fresh_stats () in
    let ctx = Domain.DLS.get key in
    reseed ctx st;
    let env = { ctx; counters; certify = certifier cert ctx ~defer } in
    (prop.check env c st, counters, false)
  in
  let rec subtree node st () =
    let counters = fresh_stats () in
    counters.composite_paths <- 1;
    if Atomic.fetch_and_add visits 1 >= cfg.max_composite_paths then
      (prop.empty, counters, true)
    else begin
      (* Spawn once the whole node is expanded: when checks start
         decides how much the bound's shared [hint] prunes, and this
         keeps the schedule the per-property drivers had. *)
      let items = ref [] in
      prop.expand node st (fun item -> items := item :: !items);
      let futs =
        List.map
          (function
            | Check (c, st') -> Pool.spawn pool (check_task c st')
            | Descend (dst, st') -> Pool.spawn pool (subtree dst st'))
          (List.rev !items)
      in
      List.fold_left
        (fun (r, acc, bh) fut ->
          let r_i, s_i, bh_i = Pool.await pool fut in
          merge_counters acc s_i;
          (prop.merge r r_i, acc, bh || bh_i))
        (prop.empty, counters, false)
        futs
    end
  in
  let r, s, budget_hit =
    Pool.await pool (Pool.spawn pool (subtree root st0))
  in
  merge_counters stats s;
  (* Every check task has finished, so no certificate is still being
     enqueued. *)
  List.iter (Pool.await pool) !certs;
  record_sched pool;
  (r, budget_hit)

(* Run [prop] from node [root] in state [st0]; returns the merged
   result and whether the composite-path budget ran out. *)
let traverse ?pool cfg cert prop stats root st0 =
  match pool with
  | Some pool when Pool.size pool > 1 ->
    parallel pool cfg cert prop stats root st0
  | _ -> sequential cfg cert prop stats root st0

(* {1 Violation properties: crash freedom and reachability}

   Both look for feasible paths to a suspect end and report each one,
   with a replayed witness, as a violation. *)

type suspect = {
  s_node : int;
  s_outcome : Engine.outcome;  (** the outcome reported for the path *)
  s_expect : Witness.expect;  (** what the witness must reproduce *)
  s_seg_reads : bool;
      (** whether a read of private state on the path makes the
          violation stateful: crash asks that the suspect segment itself
          read state, reachability does not ([true]) *)
}

let violation_property cfg pl expand =
  let nodes = Click.Pipeline.nodes pl in
  let check env s (st : Compose.t) =
    match decide cfg env ~solve:solve_small ~deps:st.Compose.static_deps with
    | Solver.Unsat | Solver.Unknown -> []
    | Solver.Sat model ->
      let replayed, witness, confirmed =
        replay_model cfg pl env.counters ~model ~st ~expect:s.s_expect
      in
      [
        {
          node = s.s_node;
          element = nodes.(s.s_node).Click.Pipeline.element.Click.Element.name;
          outcome = s.s_outcome;
          cond = st.Compose.cond;
          witness = Some witness;
          confirmed;
          stateful = s.s_seg_reads && trace_reads_kv st;
          replayed;
        };
      ]
  in
  let merge a = function [] -> a | b -> a @ b in
  { expand; check; empty = []; merge }

(* Why a traversal that found no violation is still inconclusive, if
   it is: the verdict rules every violation property shares, fabric
   queries included. *)
let unknown_reason ~incomplete stats ~budget_hit =
  if budget_hit then Some "composite path budget exceeded"
  else if stats.unknown_checks > 0 then
    Some "solver budget exceeded on some checks"
  else if incomplete then Some "element symbolic execution was incomplete"
  else None

let violation_report summaries stats cert (violations, budget_hit) =
  let verdict =
    if violations <> [] then Violated violations
    else
      match
        unknown_reason ~incomplete:(any_incomplete summaries) stats ~budget_hit
      with
      | Some why -> Unknown why
      | None -> Proved
  in
  { verdict; stats; cert = cert_summary cert }

(* {1 Crash freedom} *)

(* Crash segments are suspect, and so are segments that dip below the
   {e remaining} headroom budget even though the element-local summary
   (which assumed a full budget) did not crash: those are reported as a
   headroom crash. [danger.(i)] marks nodes where some segment's worst
   push excursion can exceed the least budget any path carries in (a
   static over-approximation): only there do drop/emit segments need
   the per-path dip check, so headroom-safe pipelines pay nothing.
   Emit segments are followed only into subtrees that [has_suspect]. *)
let crash_expand nodes summaries has_suspect danger node st yield =
  let suspect (seg : Engine.segment) st' outcome =
    yield
      (Check
         ( { s_node = node;
             s_outcome = outcome;
             s_expect = Witness.Crash_at node;
             s_seg_reads = segment_reads_kv seg },
           st' ))
  in
  let headroom seg st' = suspect seg st' (Engine.O_crash Engine.C_headroom) in
  iter_segments summaries node st (fun apply seg ->
      match seg.Engine.outcome with
      | Engine.O_crash _ ->
        let st' = apply seg in
        if st'.Compose.headroom_short then headroom seg st'
        else suspect seg st' seg.Engine.outcome
      | Engine.O_drop ->
        if danger.(node) then
          let st' = apply seg in
          if st'.Compose.headroom_short then headroom seg st'
      | Engine.O_emit p -> (
        let dst =
          match nodes.(node).Click.Pipeline.outputs.(p) with
          | Some (dst, _) when has_suspect.(dst) -> Some dst
          | _ -> None
        in
        if danger.(node) || dst <> None then
          let st' = apply seg in
          if st'.Compose.headroom_short then
            (* The runtime crashes mid-segment; nothing runs behind
               this element on such a path, so do not descend. *)
            headroom seg st'
          else
            match dst with
            | Some dst when Compose.plausible st' -> yield (Descend (dst, st'))
            | _ -> ()))

let check_crash_freedom ?(config = default_config) (pl : Click.Pipeline.t) :
    report =
  with_jobs config @@ fun pool ->
  let stats = fresh_stats () in
  let cert = make_cert config in
  let summaries = step1 ?pool config pl stats in
  let nodes = Click.Pipeline.nodes pl in
  let n = Array.length nodes in
  let entry = Click.Pipeline.entry pl in
  let order = Click.Pipeline.topological_order pl in
  (* Static headroom budgeting: [budget.(i)] is the least remaining
     headroom any path can carry into node [i] (forward min-plus pass
     over the segments' net head deltas). A node is a [danger] node iff
     some segment's worst push excursion can dip below that least
     budget — an over-approximation of the per-path [headroom_short]
     check, so pipelines that provably stay within budget skip the
     dynamic dip checks entirely. *)
  let budget = Array.make n max_int in
  budget.(entry) <- config.engine.Engine.headroom;
  let danger = Array.make n false in
  List.iter
    (fun i ->
      if budget.(i) < max_int then
        List.iter
          (fun (seg : Engine.segment) ->
            let out = seg.Engine.out_state in
            if budget.(i) + out.Engine.min_delta < 0 then danger.(i) <- true;
            match seg.Engine.outcome with
            | Engine.O_emit p -> (
              match nodes.(i).Click.Pipeline.outputs.(p) with
              | Some (dst, _) ->
                let b = budget.(i) + out.Engine.head_delta in
                if b < budget.(dst) then budget.(dst) <- b
              | None -> ())
            | Engine.O_drop | Engine.O_crash _ -> ())
          summaries.(i).Summaries.result.Engine.segments)
    order;
  (* Which nodes can still lead to a suspect segment (their own crash
     segments, a possible headroom dip, or either further down)? *)
  let has_suspect = Array.make n false in
  List.iter
    (fun i ->
      let own =
        danger.(i)
        || List.exists Summaries.is_suspect_crash
             summaries.(i).Summaries.result.Engine.segments
      in
      let below =
        Array.exists
          (function
            | Some (dst, _) -> has_suspect.(dst)
            | None -> false)
          nodes.(i).Click.Pipeline.outputs
      in
      has_suspect.(i) <- own || below)
    (List.rev order);
  Array.iter
    (fun (e : Summaries.entry) ->
      stats.suspects <-
        stats.suspects
        + List.length
            (List.filter Summaries.is_suspect_crash
               e.Summaries.result.Engine.segments))
    summaries;
  let t0 = now () in
  let result =
    if has_suspect.(entry) then
      traverse ?pool config cert
        (violation_property config pl
           (crash_expand nodes summaries has_suspect danger))
        stats entry (initial_state config)
    else ([], false)
  in
  stats.step2_time <- now () -. t0;
  violation_report summaries stats cert result

(* {1 Incremental (delta) re-verification}

   A [session] memoizes the last crash-freedom report for one pipeline
   and re-validates it by probing the Step-1 summary cache: the report
   is a deterministic function of the element summaries (plus config),
   so if every summary entry comes back {e physically} unchanged — i.e.
   no static-store mutation invalidated any of them since the last run
   — the previous [Proved] verdict still holds and is returned without
   re-composing or re-solving anything. A mutation that does invalidate
   a summary makes the probe recompute exactly that element; the
   mismatch then triggers a full (but cache-warm) re-verification.
   Non-[Proved] reports are never reused: a violation's witness is
   replayed against {e current} store contents, so its confirmation
   status must be recomputed. *)

type session = {
  s_pl : Click.Pipeline.t;
  s_config : config;
  mutable s_prev : (Summaries.entry array * report) option;
}

let session ?(config = default_config) pl =
  Staleness.install ();
  { s_pl = pl; s_config = config; s_prev = None }

let verify_crash (s : session) : report * bool =
  let probe () = Summaries.of_pipeline ~config:s.s_config.engine s.s_pl in
  match s.s_prev with
  | Some (prev, r)
    when (match r.verdict with Proved -> true | _ -> false)
         && Summaries.unchanged prev (probe ()) ->
    (r, true)
  | _ ->
    let r = check_crash_freedom ~config:s.s_config s.s_pl in
    s.s_prev <- Some (probe (), r);
    (r, false)

(* {1 Bounded execution} *)

type bound_report = {
  bound : int option;  (** max instructions over feasible paths *)
  exact : bool;
      (** false if any loop summary contributed slack, or if a
          candidate path longer than [bound] came back [Unknown] (the
          true maximum might then exceed the reported one) *)
  witness : Vdp_packet.Packet.t option;
  measured : int option;
      (** instructions the runtime actually spent on the witness *)
  b_replayed : Witness.t option;
      (** replay record of the witness (with its derived initial
          state), when [config.replay] was on *)
  b_stats : stats;
  b_verdict : verdict;  (** Unknown if exploration was incomplete *)
  b_cert : Vdp_cert.Certificate.summary option;
}

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

(* Every completed path is suspect. *)
let bound_expand nodes summaries node st yield =
  iter_segments summaries node st (fun apply seg ->
      let st' = apply seg in
      if Compose.plausible st' then
        match seg.Engine.outcome with
        | Engine.O_crash _ | Engine.O_drop -> yield (Check ((), st'))
        | Engine.O_emit p -> (
          match nodes.(node).Click.Pipeline.outputs.(p) with
          | None -> yield (Check ((), st'))
          | Some (dst, _) -> yield (Descend (dst, st'))))

(* A result is (longest feasible path as (instr_hi, final state, model),
   longest path that came back Unknown). [hint] is the largest instr_hi
   proven feasible anywhere so far: a path at or below it cannot raise
   the maximum and is skipped. Sequentially [hint] is exactly the
   running best, so only paths that improve on it are checked; in
   parallel it is shared across tasks, and which equal-length witness
   is kept (and the check count) may vary, never the bound. Merging
   keeps the earlier of two equally long paths, so ties resolve to the
   first in DFS order. *)
let bound_property cfg nodes summaries =
  let hint = Atomic.make (-1) in
  let check env () (st : Compose.t) =
    let hi = st.Compose.instr_hi in
    if hi <= Atomic.get hint then (None, -1)
    else
      match decide cfg env ~solve ~deps:st.Compose.static_deps with
      | Solver.Sat model ->
        atomic_max hint hi;
        (Some (hi, st, model), -1)
      | Solver.Unsat -> (None, -1)
      | Solver.Unknown -> (None, hi)
  in
  let merge (b, u) (b', u') =
    let best =
      match (b, b') with
      | None, _ -> b'
      | Some (x, _, _), Some (y, _, _) when y > x -> b'
      | Some _, _ -> b
    in
    (best, max u u')
  in
  { expand = bound_expand nodes summaries; check; empty = (None, -1); merge }

let instruction_bound ?(config = default_config) (pl : Click.Pipeline.t) :
    bound_report =
  with_jobs config @@ fun pool ->
  let stats = fresh_stats () in
  let cert = make_cert config in
  let summaries = step1 ?pool config pl stats in
  let nodes = Click.Pipeline.nodes pl in
  let t0 = now () in
  let (best, unknown_hi), budget_hit =
    traverse ?pool config cert
      (bound_property config nodes summaries)
      stats (Click.Pipeline.entry pl) (initial_state config)
  in
  (* A candidate longer than the bound that came back Unknown means the
     bound may undercount, so it must not be reported exact. *)
  let bound, exact =
    match best with
    | Some (b, st, _) ->
      (Some b, (not st.Compose.summarized) && unknown_hi <= b)
    | None -> (None, false)
  in
  let witness, measured, b_replayed =
    match best with
    | None -> (None, None, None)
    | Some (_, st, model) ->
      let max_len = config.engine.Engine.max_len in
      if config.replay then begin
        (* Load the private state the longest path assumed, then require
           the runtime's count to land inside the path's interval. *)
        let r =
          Witness.replay pl ~max_len ~model ~st
            ~expect:
              (Witness.Instrs_between
                 (st.Compose.instr_lo, st.Compose.instr_hi))
        in
        stats.replays <- stats.replays + 1;
        if Witness.confirmed r then
          stats.replays_confirmed <- stats.replays_confirmed + 1;
        ( Some r.Witness.packet,
          Some r.Witness.run.Click.Runtime.total_instrs,
          Some r )
      end
      else
        let pkt = Compose.witness_packet model ~max_len in
        let inst = Click.Runtime.instantiate pl in
        let r = Click.Runtime.push inst (Vdp_packet.Packet.clone pkt) in
        (Some pkt, Some r.Click.Runtime.total_instrs, None)
  in
  stats.step2_time <- now () -. t0;
  let verdict =
    if budget_hit then Unknown "composite path budget exceeded"
    else if any_incomplete summaries then
      Unknown "element symbolic execution was incomplete"
    else if stats.unknown_checks > 0 then
      Unknown "solver budget exceeded on some checks"
    else Proved
  in
  {
    bound;
    exact;
    witness;
    measured;
    b_replayed;
    b_stats = stats;
    b_verdict = verdict;
    b_cert = cert_summary cert;
  }

(* {1 Reachability} *)

(** [check_reachability ~assume ~bad pl] proves that no input packet
    satisfying [assume] can end in a way matching [bad]; returns
    violations (with witnesses) otherwise. *)
type path_end =
  | End_egress of int  (** pipeline egress number *)
  | End_drop of int    (** node index that dropped *)
  | End_crash of int

let expect_of_end = function
  | End_egress e -> Witness.Egress_at e
  | End_drop n -> Witness.Drop_at n
  | End_crash n -> Witness.Crash_at n

(* Path ends matching [bad] are suspect. *)
let reach_expand pl nodes summaries ~bad node st yield =
  let suspect (seg : Engine.segment) st' path_end =
    if bad path_end then
      yield
        (Check
           ( { s_node = node; s_outcome = seg.Engine.outcome;
               s_expect = expect_of_end path_end; s_seg_reads = true },
             st' ))
  in
  iter_segments summaries node st (fun apply seg ->
      let st' = apply seg in
      if Compose.plausible st' then
        match seg.Engine.outcome with
        | Engine.O_crash _ -> suspect seg st' (End_crash node)
        | Engine.O_drop -> suspect seg st' (End_drop node)
        | Engine.O_emit p -> (
          match nodes.(node).Click.Pipeline.outputs.(p) with
          | None -> (
            match Click.Pipeline.egress_index pl ~node ~port:p with
            | Some e -> suspect seg st' (End_egress e)
            | None -> ())
          | Some (dst, _) -> yield (Descend (dst, st'))))

let check_reachability ?(config = default_config) ~bad (pl : Click.Pipeline.t)
    : report =
  with_jobs config @@ fun pool ->
  let stats = fresh_stats () in
  let cert = make_cert config in
  let summaries = step1 ?pool config pl stats in
  let nodes = Click.Pipeline.nodes pl in
  let t0 = now () in
  let result =
    traverse ?pool config cert
      (violation_property config pl (reach_expand pl nodes summaries ~bad))
      stats (Click.Pipeline.entry pl) (initial_state config)
  in
  stats.step2_time <- now () -. t0;
  violation_report summaries stats cert result
