(** The dataplane verifier: Step-1 summaries + Step-2 composition.

    Three target properties from the paper:
    - {b crash freedom} — no input packet can crash the pipeline;
    - {b bounded execution} — a provable upper bound on instructions
      executed per packet, with the packet that attains it;
    - {b reachability} — e.g. "well-formed packets to X are never
      dropped", checked for a specific configuration.

    Step 2 is one algorithm, whatever the property: compose the element
    summaries' segments along paths and ask the solver whether the
    suspect composite paths are feasible. One hop {!step} over a node
    {!graph} decides where each segment leads: a headroom dip, a crash
    or a drop ends the path, an emit follows the graph's route. Each
    {!property} is a filter over that step (which ends are suspect,
    which descents are worth taking) plus a [check] that runs one
    feasibility decision, run by one sequential and one parallel driver
    (see {!section-step2}). A pipeline's elements and a fabric's (pipe,
    node, crossings) hops ({!Vdp_topo.Relation.graph}) are two such
    graphs, so the fabric queries of {!Vdp_topo.Query} share it all.

    The sequential driver carries one {e incremental} solver context
    down the composition DFS: each descent pushes a scope and asserts
    only the new segment's constraints, each return pops it, and the
    solver keeps its blasted term DAG and learned clauses throughout. A
    shared query cache additionally memoizes identical composite
    conditions (common across properties on the same pipeline).

    Every satisfiable answer is replayed ({!Witness.replay}): the
    initial private state the path depends on is derived from the model
    and loaded, and the concrete runtime must reproduce the claimed
    outcome before the violation (or bound witness) counts as
    confirmed.

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
  max_composite_paths : int;
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
    max_composite_paths = 2_000_000;
    jobs = 1;
    certify = false;
  }

type violation = {
  node : int;
  element : string;
  outcome : Engine.outcome;
  cond : T.t list;
  confirmed : bool;
      (** the witness reproduced the outcome on the concrete runtime *)
  stateful : bool;  (** depends on values read from private state *)
  replayed : Witness.t;
      (** the witness replay: its [packet] is the witness, with the
          loaded private state, the run and any divergence point *)
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
  Solver.create_ctx ~cache:Solver.shared_cache ~track_core:cfg.certify ()

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
  if cfg.certify then Some (Vdp_cert.Certificate.create_collector ())
  else None

(* The certifier for refutations answered by [ctx]: it certifies
   exactly the conjunction the context decided — a pipeline path's
   condition, or a fabric path's plus its boot grounding — from the
   evidence the context decided it with. That is read synchronously,
   before the context runs another check; [defer] decides where
   checking it runs. *)
let certifier cert ctx ~defer =
  match cert with
  | None -> fun () -> ()
  | Some col ->
    fun () ->
      let refutation = Solver.last_refutation ctx in
      let cond = Solver.asserted ctx in
      defer (fun () ->
          ignore
            (Vdp_cert.Certificate.certify_refutation ?refutation col cond
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

(* Replay one Sat model: derive the initial private state it assumes,
   load it, and run the witness packet on the concrete runtime. *)
let replay_model cfg pl (stats : stats) ~model ~st ~expect =
  let r =
    Witness.replay pl ~max_len:cfg.engine.Engine.max_len ~model ~st ~expect
  in
  stats.replays <- stats.replays + 1;
  if Witness.confirmed r then
    stats.replays_confirmed <- stats.replays_confirmed + 1;
  r

let trace_reads_kv (st : Compose.t) =
  List.exists
    (fun (_, ev) -> match ev with S.Kv_read _ -> true | _ -> false)
    st.Compose.kv_trace

let segment_reads_kv (seg : Engine.segment) =
  List.exists
    (function S.Kv_read _ -> true | S.Kv_write _ -> false)
    seg.Engine.kv_log

(* {1:step2 Step 2: one traversal for every property}

   A property is an [expand] step plus a [check], over any node type:
   a pipeline node index here, a (pipe, node, crossings) hop in
   {!Vdp_topo.Relation}. [expand node st yield] yields the items of one
   composite node in segment (DFS) order, one callback per item, so the
   sequential driver never holds all sibling states of a wide node at
   once; it is always {!step} with a filter. [check] runs one
   feasibility decision on a context that holds the item's state — it
   may push a scope of its own on top, as fabric checks do with their
   boot grounding — and returns a result; results merge in DFS order
   ([merge] is associative, [empty] its unit). *)

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

(* {2 The hop step} *)

(** How a path ends. ['e] names an egress: a pipeline egress number,
    or a (pipe, egress) pair on a fabric. *)
type 'e stop = Egress of 'e | Drop | Crash of Engine.crash

(** Where an output port leads. *)
type ('n, 'e) route =
  | Ends of 'e stop
  | Goes of 'n * int  (** into this node, on this input port *)
  | Cut  (** not followed: past the fabric's crossing cap *)

(** A node graph Step 2 walks: a pipeline's elements, or a fabric's
    hops ({!Vdp_topo.Relation.graph}). *)
type ('n, 'e) graph = {
  segments : 'n -> Engine.segment list;  (** the node's summary *)
  deps : 'n -> (int * B.t) list;  (** its static-state slices *)
  tag : 'n -> string;  (** its position tag *)
  route : 'n -> int -> ('n, 'e) route;  (** where an output port leads *)
}

(** The expand step of every property: where each of the node's
    segments leads, in order. A segment that {!Compose.dips} ends the
    path in a headroom crash, a crash or a drop ends it, and an emit
    follows [route]. An end is checked ({!Compose.finish}) with the
    payload [ends node stop g] returns, if any; [dst] is entered
    ({!Compose.enter}) if [descends dst g]. [g], the guarded successor,
    is forced only by the filters that need it. *)
let step graph ~ends ~descends node st yield =
  let site = Compose.site ~deps:(graph.deps node) st ~tag:(graph.tag node) in
  List.iter
    (fun (seg : Engine.segment) ->
      let next =
        if Compose.dips st seg then Ends (Crash Engine.C_headroom)
        else
          match seg.Engine.outcome with
          | Engine.O_crash c -> Ends (Crash c)
          | Engine.O_drop -> Ends Drop
          | Engine.O_emit port -> graph.route node port
      in
      let g = lazy (Compose.guard site seg) in
      match next with
      | Cut -> ()
      | Ends stop ->
        Option.iter
          (fun c -> yield (Check (c, Compose.finish (Lazy.force g))))
          (ends node stop g)
      | Goes (dst, port) ->
        if descends dst g then
          yield (Descend (dst, Compose.enter port (Lazy.force g))))
    (graph.segments node)

let plausible g = Compose.plausible (Lazy.force g)

(** Every plausible end [ends] keeps and every plausible descent: the
    bound's and reachability's filter, and every fabric query's. *)
let plausible_step graph ends =
  step graph
    ~ends:(fun node stop g ->
      if plausible g then ends node stop (Lazy.force g) else None)
    ~descends:(fun _ g -> plausible g)

(** A pipeline's node graph: its elements, tagged ["n<i>"]. Every
    unwired output is an egress. *)
let pipeline_graph pl (summaries : Summaries.entry array) =
  let result n = summaries.(n).Summaries.result in
  let egress = Hashtbl.create 8 in
  Array.iteri
    (fun e point -> Hashtbl.add egress point e)
    (Click.Pipeline.egress_points pl);
  {
    segments = (fun n -> (result n).Engine.segments);
    deps = (fun n -> (result n).Engine.static_deps);
    tag = Printf.sprintf "n%d";
    route =
      (fun n port ->
        match (Click.Pipeline.node pl n).Click.Pipeline.outputs.(port) with
        | Some (dst, dport) -> Goes (dst, dport)
        | None -> Ends (Egress (Hashtbl.find egress (n, port))));
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
         decides how much a shared stop flag (a fabric reach query's
         first confirmed flow) prunes, and this keeps the schedule the
         per-property drivers had. *)
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

(** How a pipeline path ends. *)
type path_end =
  | End_egress of int  (** pipeline egress number *)
  | End_drop of int    (** node index that dropped *)
  | End_crash of int

let path_end node = function
  | Egress e -> End_egress e
  | Drop -> End_drop node
  | Crash _ -> End_crash node

let expect_of_end = function
  | End_egress e -> Witness.Egress_at e
  | End_drop n -> Witness.Drop_at n
  | End_crash n -> Witness.Crash_at n

(* A suspect end's payload is (node, stop, the segment ending there).
   The violation reports the crash of a crash end, headroom dips
   included, else the segment's outcome. A read of private state on the
   path makes it stateful; with [seg_reads], as crash freedom asks, the
   suspect segment itself must read state. *)
let violation_property cfg pl ~seg_reads expand =
  let nodes = Click.Pipeline.nodes pl in
  let check env (node, stop, (seg : Engine.segment)) (st : Compose.t) =
    match decide cfg env ~solve:solve_small ~deps:st.Compose.static_deps with
    | Solver.Unsat | Solver.Unknown -> []
    | Solver.Sat model ->
      let expect = expect_of_end (path_end node stop) in
      let replayed = replay_model cfg pl env.counters ~model ~st ~expect in
      [
        {
          node;
          element = nodes.(node).Click.Pipeline.element.Click.Element.name;
          outcome =
            (match stop with
            | Crash c -> Engine.O_crash c
            | Egress _ | Drop -> seg.Engine.outcome);
          cond = st.Compose.cond;
          confirmed = Witness.confirmed replayed;
          stateful =
            ((not seg_reads) || segment_reads_kv seg) && trace_reads_kv st;
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

(* {1 Crash freedom}

   Crash ends are suspect, headroom dips included ({!step}), and are
   checked without interval pruning. Emits are followed only into
   subtrees that [has_suspect], and only when plausible. *)

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
     over the segments' net head deltas). A node where some segment's
     worst push excursion can dip below that least budget (an
     over-approximation of the per-path {!Compose.dips}) may end a path
     in a headroom crash, so it has a suspect of its own. *)
  let budget = Array.make n max_int in
  budget.(entry) <- config.engine.Engine.headroom;
  let has_suspect = Array.make n false in
  List.iter
    (fun i ->
      if budget.(i) < max_int then
        List.iter
          (fun (seg : Engine.segment) ->
            let out = seg.Engine.out_state in
            if budget.(i) + out.Engine.min_delta < 0 then
              has_suspect.(i) <- true;
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
  (* Which nodes can still lead to a suspect segment (a possible
     headroom dip, their own crash segments, or either further down)? *)
  List.iter
    (fun i ->
      let own =
        has_suspect.(i)
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
  let ends node stop g =
    match stop with
    | Crash _ -> Some (node, stop, (Lazy.force g).Compose.g_seg)
    | Egress _ | Drop -> None
  in
  let descends dst g = has_suspect.(dst) && plausible g in
  let result =
    if has_suspect.(entry) then
      traverse ?pool config cert
        (violation_property config pl ~seg_reads:true
           (step (pipeline_graph pl summaries) ~ends ~descends))
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
      (** replay record of the witness, with its derived initial
          state *)
  b_stats : stats;
  b_verdict : verdict;  (** Unknown if exploration was incomplete *)
  b_cert : Vdp_cert.Certificate.summary option;
}

(* The bound is decided in two phases, the same at every [-j]. The
   traversal only collects the completed paths, newest first (merging
   conses onto the older ones). They are then decided longest first on
   one context: the first feasible one is the maximum, and the only
   others decided are the longer paths, which every search must
   refute. The sort is stable, so ties keep DFS order and the witness
   is the first longest feasible path in it. A running maximum over
   the DFS decides shorter paths too, and in parallel which ones
   depends on the schedule; on checksum arithmetic some of them are
   SAT-hard (a random five-element pipeline took 5 s at -j 1 and did
   not finish in four minutes at -j 2). [longest_feasible] returns the
   longest feasible path with its model and the longest path that came
   back Unknown. Every plausible completed path is a candidate. *)
let candidates_property graph =
  {
    expand = plausible_step graph (fun _ _ _ -> Some ());
    check = (fun _ () st -> [ st ]);
    empty = [];
    merge = (fun older newer -> newer @ older);
  }

let longest_feasible cfg cert stats candidates =
  let ctx = make_ctx cfg in
  let env =
    { ctx; counters = stats; certify = certifier cert ctx ~defer:(fun f -> f ()) }
  in
  let rec go unknown_hi = function
    | [] -> (None, unknown_hi)
    | (st : Compose.t) :: rest -> (
      reseed ctx st;
      match decide cfg env ~solve ~deps:st.Compose.static_deps with
      | Solver.Sat model -> (Some (st, model), unknown_hi)
      | Solver.Unsat -> go unknown_hi rest
      | Solver.Unknown -> go (max unknown_hi st.Compose.instr_hi) rest)
  in
  go (-1)
    (List.stable_sort
       (fun (a : Compose.t) (b : Compose.t) ->
         compare b.Compose.instr_hi a.Compose.instr_hi)
       (List.rev candidates))

let instruction_bound ?(config = default_config) (pl : Click.Pipeline.t) :
    bound_report =
  with_jobs config @@ fun pool ->
  let stats = fresh_stats () in
  let cert = make_cert config in
  let summaries = step1 ?pool config pl stats in
  let t0 = now () in
  let candidates, budget_hit =
    traverse ?pool config cert
      (candidates_property (pipeline_graph pl summaries))
      stats (Click.Pipeline.entry pl) (initial_state config)
  in
  let best, unknown_hi = longest_feasible config cert stats candidates in
  (* A candidate longer than the bound that came back Unknown means the
     bound may undercount, so it must not be reported exact. *)
  let bound, exact =
    match best with
    | Some (st, _) ->
      let b = st.Compose.instr_hi in
      (Some b, (not st.Compose.summarized) && unknown_hi <= b)
    | None -> (None, false)
  in
  let witness, measured, b_replayed =
    match best with
    | None -> (None, None, None)
    | Some (st, model) ->
      (* Load the private state the longest path assumed, then require
         the runtime's count to land inside the path's interval. *)
      let r =
        replay_model config pl stats ~model ~st
          ~expect:
            (Witness.Instrs_between (st.Compose.instr_lo, st.Compose.instr_hi))
      in
      ( Some r.Witness.packet,
        Some r.Witness.run.Click.Runtime.total_instrs,
        Some r )
  in
  stats.step2_time <- now () -. t0;
  let verdict =
    match
      unknown_reason ~incomplete:(any_incomplete summaries) stats ~budget_hit
    with
    | Some why -> Unknown why
    | None -> Proved
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
let check_reachability ?(config = default_config) ~bad (pl : Click.Pipeline.t)
    : report =
  with_jobs config @@ fun pool ->
  let stats = fresh_stats () in
  let cert = make_cert config in
  let summaries = step1 ?pool config pl stats in
  (* Plausible ends matching [bad] are suspect. *)
  let ends node stop (g : Compose.guarded) =
    if bad (path_end node stop) then Some (node, stop, g.Compose.g_seg)
    else None
  in
  let t0 = now () in
  let result =
    traverse ?pool config cert
      (violation_property config pl ~seg_reads:false
         (plausible_step (pipeline_graph pl summaries) ends))
      stats (Click.Pipeline.entry pl) (initial_state config)
  in
  stats.step2_time <- now () -. t0;
  violation_report summaries stats cert result
