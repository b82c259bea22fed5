(** Relational queries over a fabric: reach, isolate, temporal, and
    fabric crash freedom.

    Every query is the verifier's Step 2 over the fabric's node graph
    ({!Relation.graph}): {!Relation.expand} is the one hop step with
    the filter all queries share, and each query's depth-1 stage is a
    [check] on every plausible path end, run by the verifier's drivers
    — one incremental solver context down the DFS at [jobs = 1], the
    work-stealing {!Vdp_verif.Pool} at [jobs > 1]. Fabric checks share the
    pipeline properties' query cache, word-level preprocessing,
    counters, verdict rules and certifier: a check pushes the path's
    boot grounding ({!Relation.ground_boot}) on top of the path
    condition its context already holds, decides the two together with
    {!Vdp_verif.Verifier.decide}, and a refutation is certified as
    exactly that conjunction. Claims are never taken from the solver
    alone:

    - A satisfiable breach/reach answer must {e replay}: the model's
      packet(s) are pushed through the wired fabric from boot state by
      {!Vdp_verif.Witness.replay}, which replays every pipeline
      witness too, and the flow is tagged confirmed only if the
      concrete run ends where the symbolic path claimed.
    - An unsatisfiable answer can be certified through
      {!Vdp_cert.Certificate}, upgrading [Holds] to a checked proof.

    Query depth is bounded at two packets: depth 1 is a single packet
    from a cold (boot) fabric — the traversal above — and depth 2
    composes a renamed "prime" packet first, enough to express the NAT
    temporal property ("an inbound flow is answered only after an
    outbound packet"), which is the [Temporal] query: cold-unreachable
    at depth 1 {e and} reachable, replay-confirmed, at depth 2. One
    function ({!depth2}) decides the coupled (prime, attack) pairs of
    every query, each in its own scope of one incremental context. *)

module T = Vdp_smt.Term
module Solver = Vdp_smt.Solver
module Engine = Vdp_symbex.Engine
module P = Vdp_packet.Packet
module Config = Vdp_click.Config
module Witness = Vdp_verif.Witness
module Summaries = Vdp_verif.Summaries
module Compose = Vdp_verif.Compose
module V = Vdp_verif.Verifier
module Cert = Vdp_cert.Certificate

(** {!Vdp_verif.Verifier.config}, re-exported with its labels. *)
type config = V.config = {
  engine : Engine.config;
  solver_budget : int;
  assume : T.t list;
  max_composite_paths : int;
  jobs : int;
  certify : bool;
}

let default_config = V.default_config

(** A concrete packet flow witnessing a query answer. [w_prime] is the
    first packet of a depth-2 flow (with the ingress it entered at). *)
type flow = {
  w_prime : (string * P.t) option;
  w_ingress : string;
  w_end : string;  (** where the concrete replay ended *)
  w_confirmed : bool;
  w_replay : Witness.t;  (** the witness packet's replay, with its notes *)
}

type verdict =
  | Holds of flow option
      (** property established; positive queries (reach, temporal)
          carry their replay-confirmed witness flow *)
  | Fails of flow list * string
      (** counterexample flows (isolate breaches, temporal cold
          reaches), or a liveness failure with an empty list *)
  | Unknown of string

type report = {
  verdict : verdict;
  prop : Config.topo_prop;
  paths : int;  (** composite states enumerated *)
  checks : int;  (** solver decisions *)
  sat : int;  (** satisfiable answers, each replayed *)
  depth : int;  (** packets composed: 1 or 2 *)
  time : float;
  cert : Cert.summary option;
}

let prop_to_string = function
  | Config.Reach (a, b) -> Printf.sprintf "reach %s -> %s" a b
  | Config.Isolate (a, b) -> Printf.sprintf "isolate %s -> %s" a b
  | Config.Temporal (a, b) -> Printf.sprintf "temporal %s -> %s" a b

let verdict_to_string = function
  | Holds None -> "holds"
  | Holds (Some _) -> "holds (witness confirmed)"
  | Fails (flows, reason) ->
    let confirmed =
      List.length (List.filter (fun f -> f.w_confirmed) flows)
    in
    if flows = [] then Printf.sprintf "fails (%s)" reason
    else
      Printf.sprintf "fails: %d flow(s), %d replay-confirmed (%s)"
        (List.length flows) confirmed reason
  | Unknown msg -> Printf.sprintf "unknown (%s)" msg

(** Every flow of a failing verdict replayed Confirmed (vacuously true
    for the other verdicts) — the trust gate for breach reports. *)
let all_confirmed r =
  match r.verdict with
  | Fails (flows, _) -> List.for_all (fun f -> f.w_confirmed) flows
  | _ -> true

let cert_complete = function
  | None -> true
  | Some (s : Cert.summary) ->
    s.Cert.failed = 0 && s.Cert.certified = s.Cert.attempted

(* {1 Shared query machinery} *)

type qctx = {
  rel : Relation.t;
  cfg : config;
  cert : Cert.collector option;
  stats : V.stats;  (** Step-2 counters of every traversal and check *)
  pool : Vdp_verif.Pool.t option;
  mutable budget_hit : bool;
}

let make_qctx ?pool rel cfg =
  {
    rel;
    cfg;
    cert = V.make_cert cfg;
    stats = V.fresh_stats ();
    pool;
    budget_hit = false;
  }

(* Run a fabric property from one ingress on the verifier's drivers. *)
let traverse q prop ingress =
  let root, st0 =
    Relation.root q.rel ~assume:(V.base_assumptions q.cfg) ~ingress
  in
  let r, budget_hit =
    V.traverse ?pool:q.pool q.cfg q.cert prop q.stats root st0
  in
  if budget_hit then q.budget_hit <- true;
  r

(* A fabric property collecting per-path entries, in DFS order. The
   traversal's result is kept newest first — [merge] puts the later
   part in front, which is associative with unit [[]] — so a merge
   costs what a check adds, not what came before it. *)
let collect q check ingress =
  let merge a b = b @ a in
  List.rev
    (traverse q
       { V.expand = Relation.expand q.rel; check; empty = []; merge }
       ingress)

(* All plausible fabric paths from one ingress (any end). *)
let paths_from q ingress =
  collect q (fun _ fp_end fp_st -> [ { Relation.fp_end; fp_st } ]) ingress

let unknown_reason q =
  V.unknown_reason ~incomplete:(Relation.any_incomplete q.rel) q.stats
    ~budget_hit:q.budget_hit

(* [v], unless the exploration was incomplete: the verdict rules of
   {!Vdp_verif.Verifier.violation_report}. *)
let or_unknown q v =
  match unknown_reason q with Some why -> Unknown why | None -> v

(* Decide [terms] on top of what [env]'s context holds, in a scope of
   their own; [deps] are the static slices the conjunction reads. *)
let decide_scoped q env terms ~deps =
  let ctx = env.V.ctx in
  Solver.push ctx;
  Solver.assert_terms ctx terms;
  let r = V.decide q.cfg env ~solve:V.solve ~deps in
  Solver.pop ctx;
  r

let expect_of_end = function
  | Relation.E_egress (p, e) -> Witness.Egress_at (p, e)
  | Relation.E_drop (p, n) -> Witness.Drop_at (p, n)
  | Relation.E_crash (p, n, _) -> Witness.Crash_at (p, n)

(* The flow of a feasible answer: its model replayed ({!Witness.replay})
   from boot state on the wired fabric, the prime packet first when
   there is one, then the attack packet. Counted in [counters]. *)
let flow_of_model q counters ~model ?prime ~ingress_name ~ingress
    (attack : Relation.fpath) =
  let w = q.rel.Relation.fab.Fabric.wired in
  let packet ~prefix =
    Compose.witness_packet ~prefix model ~max_len:q.cfg.engine.Engine.max_len
  in
  let leg at packet (fp : Relation.fpath) =
    { Witness.at; packet; st = fp.Relation.fp_st;
      expect = expect_of_end fp.Relation.fp_end }
  in
  let prime =
    Option.map
      (fun (name, at, pr) ->
        (name, leg at (packet ~prefix:Relation.prime_prefix) pr))
      prime
  in
  let r =
    V.replay counters ~boot:true w ~model ?prime:(Option.map snd prime)
      (leg ingress (packet ~prefix:"") attack)
  in
  {
    w_prime = Option.map (fun (n, (l : Witness.leg)) -> (n, l.packet)) prime;
    w_ingress = ingress_name;
    w_end = Vdp_click.Wired.end_to_string w r.Witness.run;
    w_confirmed = Witness.confirmed r;
    w_replay = r;
  }

(* A depth-1 check: decide one path from boot state — its grounding
   pushed on the path condition the context holds — and replay a
   feasible answer. *)
let decide_cold q env ~ingress_name ~ingress (fp : Relation.fpath) =
  let st = fp.Relation.fp_st in
  match
    decide_scoped q env (Relation.boot_terms q.rel st)
      ~deps:st.Compose.static_deps
  with
  | Solver.Sat model ->
    Some
      (flow_of_model q env.V.counters ~model ~ingress_name ~ingress fp)
  | Solver.Unsat | Solver.Unknown -> None

(* {1 The three queries} *)

(* The cold (depth-1) stage from ingress [a] to egress [b]: every path
   from [a] ending at [b], in DFS order, each with the flow of a
   feasible answer. With [first], checks stop deciding once some flow
   has confirmed — a flag shared by every task — but the paths are
   still collected. *)
let cold_stage q a b ~first =
  let fab = q.rel.Relation.fab in
  let ingress = Fabric.ingress fab a and target = Fabric.egress fab b in
  let found = Atomic.make false in
  let check env fp_end fp_st =
    match fp_end with
    | Relation.E_egress (pi, e) when (pi, e) = target ->
      let fp = { Relation.fp_end; fp_st } in
      let flow =
        if first && Atomic.get found then None
        else decide_cold q env ~ingress_name:a ~ingress fp
      in
      (match flow with
      | Some f when f.w_confirmed -> Atomic.set found true
      | _ -> ());
      [ (fp, flow) ]
    | _ -> []
  in
  (ingress, collect q check ingress)

(* Prime candidates: all paths from every ingress that write private
   state, labeled with their ingress. *)
let prime_candidates q =
  List.concat_map
    (fun (name, ing) ->
      List.filter_map
        (fun fp ->
          if Relation.writes_of_path fp <> [] then Some (name, ing, fp)
          else None)
        (paths_from q ing))
    q.rel.Relation.fab.Fabric.ingresses

(* The depth-2 stage: each attack path from [a], primed by one earlier
   packet from any ingress whose path writes private state the attack
   reads. Every coupled pair is decided — boot-grounded over the
   combined kv trace — in its own scope of one incremental context;
   returns the flows of the feasible pairs in order, stopping at the
   first confirmed one when [first].

   Interval-plausible parse variants whose path condition is already
   unsatisfiable on its own (typically an offset-concretization variant
   contradicting an earlier header check) can never pair into a
   feasible two-packet flow, so both sides are first weeded out once,
   on the same context, by plain satisfiability of their path
   condition — no boot grounding, since a primed query replaces the
   cold store state. Those checks are not certified: dropping a pair
   whose side is infeasible alone only removes unsatisfiable
   supersets. *)
let depth2 q ~a ~ingress ~attacks ~first =
  let ctx = V.make_ctx q.cfg in
  let env =
    {
      V.ctx;
      counters = q.stats;
      certify = V.certifier q.cert ctx ~defer:(fun f -> f ());
    }
  in
  let shape_feasible (fp : Relation.fpath) =
    let st = fp.Relation.fp_st in
    match
      decide_scoped q
        { env with V.certify = ignore }
        st.Compose.cond ~deps:st.Compose.static_deps
    with
    | Solver.Unsat -> false
    | Solver.Sat _ | Solver.Unknown -> true
  in
  let attacks = List.filter shape_feasible attacks in
  let primes =
    List.filter (fun (_, _, pr) -> shape_feasible pr) (prime_candidates q)
  in
  let flows = ref [] and stop = ref false in
  List.iter
    (fun attack ->
      List.iter
        (fun ((_, _, pr) as prime) ->
          if (not !stop) && Relation.couples q.rel ~prime:pr ~attack then
            let terms, deps = Relation.query_terms q.rel ~prime:pr ~attack in
            match decide_scoped q env terms ~deps with
            | Solver.Sat model ->
              let f =
                flow_of_model q q.stats ~model ~prime ~ingress_name:a ~ingress
                  attack
              in
              flows := f :: !flows;
              stop := first && f.w_confirmed
            | Solver.Unsat | Solver.Unknown -> ())
        primes)
    attacks;
  List.rev !flows

let first_confirmed = List.find_opt (fun f -> f.w_confirmed)

(* Isolation: no packet from [a] may reach [b], cold or primed by one
   earlier packet from any ingress. All feasible flows are replayed and
   reported; refutations are certified when configured. *)
let run_isolate q a b =
  let ingress, cold = cold_stage q a b ~first:false in
  (* Depth 2 only when depth 1 is clean: a cold breach already decides
     the verdict, and the bench gates want the cheapest witness. *)
  let breaches, depth =
    match List.filter_map snd cold with
    | [] when cold <> [] ->
      (depth2 q ~a ~ingress ~attacks:(List.map fst cold) ~first:false, 2)
    | flows -> (flows, 1)
  in
  ( (if breaches <> [] then Fails (breaches, "isolation breached")
     else or_unknown q (Holds None)),
    depth )

(* [v] for a positive query that found no confirmed flow, unless some
   check came back feasible: an unconfirmed flow leaves the answer
   unknown, naming its replay. *)
let unconfirmed q flows v =
  match flows with
  | [] -> or_unknown q v
  | f :: _ ->
    let why =
      match f.w_replay.Witness.status with
      | Witness.Unconfirmed why -> why
      | Witness.Confirmed -> ""
    in
    Unknown
      (String.concat "; "
         (Printf.sprintf "%d feasible flow(s), none replay-confirmed: replay \
                          from %s: %s"
            (List.length flows) f.w_ingress why
         :: f.w_replay.Witness.notes))

(* Reachability: some packet from [a] reaches [b]; try cold first, then
   primed. The witness must replay-confirm to count. *)
let run_reach q a b =
  let ingress, cold = cold_stage q a b ~first:true in
  let flows = List.filter_map snd cold in
  let flows, depth =
    if first_confirmed flows = None && cold <> [] then
      ( flows @ depth2 q ~a ~ingress ~attacks:(List.map fst cold) ~first:true,
        2 )
    else (flows, 1)
  in
  ( (match first_confirmed flows with
    | Some f -> Holds (Some f)
    | None -> unconfirmed q flows (Fails ([], "no feasible path"))),
    depth )

(* Temporal: [b] unreachable from [a] on a cold fabric, and reachable
   (replay-confirmed) after one priming packet — the NAT property. *)
let run_temporal q a b =
  let ingress, cold = cold_stage q a b ~first:false in
  match (List.filter_map snd cold, unknown_reason q) with
  | (_ :: _ as flows), _ -> (Fails (flows, "reachable from a cold fabric"), 1)
  | [], Some why -> (Unknown why, 1)
  | [], None -> (
    let flows =
      depth2 q ~a ~ingress ~attacks:(List.map fst cold) ~first:true
    in
    match first_confirmed flows with
    | Some f -> (Holds (Some f), 2)
    | None ->
      ( unconfirmed q flows
          (Fails ([], "unreachable even after a priming packet")),
        2 ))

(** Run one declared property against a built relation. *)
let run ?(config = default_config) rel prop =
  V.with_jobs config @@ fun pool ->
  let q = make_qctx ?pool rel config in
  let t0 = V.now () in
  let verdict, depth =
    match prop with
    | Config.Reach (a, b) -> run_reach q a b
    | Config.Isolate (a, b) -> run_isolate q a b
    | Config.Temporal (a, b) -> run_temporal q a b
  in
  {
    verdict;
    prop;
    paths = q.stats.V.composite_paths;
    checks = q.stats.V.suspect_checks;
    sat = q.stats.V.replays;
    depth;
    time = V.now () -. t0;
    cert = V.cert_summary q.cert;
  }

(* {1 Fabric crash-freedom} *)

(** Feasible crash ends from any ingress (headroom exhaustion included
    — {!Vdp_verif.Compose} threads the budget through every crossing),
    plus the worst-case instruction bound over all plausible paths. *)
type crash_report = {
  c_verdict : verdict;
  c_max_instrs : int;
  c_paths : int;  (** completed paths *)
  c_cert : Cert.summary option;
}

(* One traversal per ingress. A result is (crash flows, newest first;
   largest [instr_hi]; completed paths). *)
let verify_crash ?(config = default_config) rel =
  V.with_jobs config @@ fun pool ->
  let q = make_qctx ?pool rel config in
  let empty = ([], 0, 0) in
  let merge (f, m, n) (f', m', n') = (f' @ f, max m m', n + n') in
  let crashes, max_instrs, npaths =
    List.fold_left
      (fun acc (name, ingress) ->
        let check env fp_end (fp_st : Compose.t) =
          let flows =
            match fp_end with
            | Relation.E_crash _ ->
              Option.to_list
                (decide_cold q env ~ingress_name:name ~ingress
                   { Relation.fp_end; fp_st })
            | Relation.E_egress _ | Relation.E_drop _ -> []
          in
          (flows, fp_st.Compose.instr_hi, 1)
        in
        merge acc
          (traverse q
             { V.expand = Relation.expand rel; check; empty; merge }
             ingress))
      empty rel.Relation.fab.Fabric.ingresses
  in
  {
    c_verdict =
      (if crashes <> [] then Fails (List.rev crashes, "crash reachable")
       else or_unknown q (Holds None));
    c_max_instrs = max_instrs;
    c_paths = npaths;
    c_cert = V.cert_summary q.cert;
  }

(* {1 Sessions: memoized verdicts under config churn} *)

(* Pipes a property's queries can possibly read: link-closure from the
   relevant ingresses — [a]'s alone for a reach decided at depth 1, all
   of them once a query reaches depth 2, whose primes come from every
   ingress (isolate and temporal always may). *)
let rec reachable_pipes fab seen = function
  | [] -> seen
  | pi :: rest when List.mem pi seen -> reachable_pipes fab seen rest
  | pi :: rest ->
    reachable_pipes fab (pi :: seen)
      (Hashtbl.fold
         (fun (spi, _) (dpi, _) acc -> if spi = pi then dpi :: acc else acc)
         fab.Fabric.links rest)

let prop_pipes fab prop ~depth =
  let from =
    match prop with
    | Config.Reach (a, _) when depth = 1 -> [ Fabric.ingress fab a ]
    | Config.Reach _ | Config.Isolate _ | Config.Temporal _ ->
      List.map snd fab.Fabric.ingresses
  in
  reachable_pipes fab [] (List.map fst from)

(** A session memoizes per-property reports under
    {!Vdp_verif.Verifier.memoized}'s one reuse rule, probing the pipes
    a property's queries can read. A [Static_data] mutation in one
    pipeline invalidates its summaries through the
    {!Vdp_verif.Staleness} listeners (or bumps its stores' generations,
    which verdicts resting on a replay check too), so only the verdicts
    whose queries could read that pipeline are recomputed. *)
type session = {
  s_fab : Fabric.t;
  s_config : config;
  s_memo : (Config.topo_prop, report) V.memo;
}

let session ?(config = default_config) fab =
  { s_fab = fab; s_config = config; s_memo = Hashtbl.create 8 }

(** [(report, memoized)] — [memoized] is true when a previous report
    was revalidated without re-querying. *)
let query (s : session) prop =
  let rel = Relation.build ~config:s.s_config.engine s.s_fab in
  V.memoized s.s_memo prop
    ~probe:(fun () ->
      Array.mapi
        (fun pi (p : Fabric.pipe) ->
          (p.Fabric.p_pl, rel.Relation.summaries.(pi)))
        s.s_fab.Fabric.pipes)
    (fun () ->
      let r = run ~config:s.s_config rel prop in
      (r, prop_pipes s.s_fab prop ~depth:r.depth, r.sat > 0))
