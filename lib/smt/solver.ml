type outcome =
  | Sat of Model.t
  | Unsat
  | Unknown

type stats = {
  mutable calls : int;
  mutable sat_answers : int;
  mutable unsat_answers : int;
  mutable unknown_answers : int;
  mutable interval_refutations : int;
  mutable folded : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
  mutable eliminated_conjuncts : int;
  mutable sliced_conjuncts : int;
  mutable solved_words : int;
  mutable gate_hits : int;
  mutable gate_misses : int;
  mutable sat_vars : int;
  mutable sat_clauses : int;
  mutable learned_deleted : int;
  mutable preprocess_time : float;
  mutable blast_time : float;
  mutable sat_time : float;
  (* Certification counters, bumped by [Vdp_cert] (this module only
     stores them so they ride the same stats/reset/reporting plumbing
     as the solving counters). *)
  mutable cert_attempted : int;
  mutable cert_checked : int;
  mutable cert_failed : int;
  mutable cert_cached : int;
  mutable cert_drat : int;
  mutable cert_interval : int;
  mutable cert_folded : int;
  mutable cert_proof_clauses : int;
  mutable cert_solve_time : float;
  mutable cert_check_time : float;
  mutable cert_pcache_hits : int;
  mutable cert_untrimmed_clauses : int;  (* proof adds before trimming *)
  mutable cert_drat_ctx : int;  (* DRAT read from the answering context *)
  (* Scheduler counters, copied from [Vdp_core.Pool] after a parallel
     run so they ride the same stats/reporting plumbing. *)
  mutable sched_spawned : int;
  mutable sched_executed : int;
  mutable sched_stolen : int;
  mutable sched_busy : float;
  mutable sched_idle : float;
  mutable sched_hist : int array;  (* <1ms, <10ms, <100ms, <1s, rest *)
}

let fresh_stats () =
  {
    calls = 0;
    sat_answers = 0;
    unsat_answers = 0;
    unknown_answers = 0;
    interval_refutations = 0;
    folded = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
    eliminated_conjuncts = 0;
    sliced_conjuncts = 0;
    solved_words = 0;
    gate_hits = 0;
    gate_misses = 0;
    sat_vars = 0;
    sat_clauses = 0;
    learned_deleted = 0;
    preprocess_time = 0.;
    blast_time = 0.;
    sat_time = 0.;
    cert_attempted = 0;
    cert_checked = 0;
    cert_failed = 0;
    cert_cached = 0;
    cert_drat = 0;
    cert_interval = 0;
    cert_folded = 0;
    cert_proof_clauses = 0;
    cert_solve_time = 0.;
    cert_check_time = 0.;
    cert_pcache_hits = 0;
    cert_untrimmed_clauses = 0;
    cert_drat_ctx = 0;
    sched_spawned = 0;
    sched_executed = 0;
    sched_stolen = 0;
    sched_busy = 0.;
    sched_idle = 0.;
    sched_hist = Array.make 5 0;
  }

(* Process-wide aggregate, kept for compatibility: every context also
   bumps this record, so the sum over all solving activity remains
   observable in one place. Under parallel mode every stats bump is
   serialised by [stats_lock] (contexts are single-domain, but they
   share this aggregate), so counts are never lost to races. *)
let stats = fresh_stats ()

let stats_lock = Mutex.create ()

let locked f =
  if Par.active () then begin
    Mutex.lock stats_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock stats_lock) f
  end
  else f ()

let reset_stats_record s =
  s.calls <- 0;
  s.sat_answers <- 0;
  s.unsat_answers <- 0;
  s.unknown_answers <- 0;
  s.interval_refutations <- 0;
  s.folded <- 0;
  s.cache_hits <- 0;
  s.cache_misses <- 0;
  s.cache_evictions <- 0;
  s.eliminated_conjuncts <- 0;
  s.sliced_conjuncts <- 0;
  s.solved_words <- 0;
  s.gate_hits <- 0;
  s.gate_misses <- 0;
  s.sat_vars <- 0;
  s.sat_clauses <- 0;
  s.learned_deleted <- 0;
  s.preprocess_time <- 0.;
  s.blast_time <- 0.;
  s.sat_time <- 0.;
  s.cert_attempted <- 0;
  s.cert_checked <- 0;
  s.cert_failed <- 0;
  s.cert_cached <- 0;
  s.cert_drat <- 0;
  s.cert_interval <- 0;
  s.cert_folded <- 0;
  s.cert_proof_clauses <- 0;
  s.cert_solve_time <- 0.;
  s.cert_check_time <- 0.;
  s.cert_pcache_hits <- 0;
  s.cert_untrimmed_clauses <- 0;
  s.cert_drat_ctx <- 0;
  s.sched_spawned <- 0;
  s.sched_executed <- 0;
  s.sched_stolen <- 0;
  s.sched_busy <- 0.;
  s.sched_idle <- 0.;
  Array.fill s.sched_hist 0 (Array.length s.sched_hist) 0

let reset_stats () = reset_stats_record stats

let now () = Unix.gettimeofday ()

(* {1 Query cache}

   Memoizes definite answers keyed on the hash-consed id of the
   *preprocessed* conjunction. [Term.and_] flattens, deduplicates and
   sorts by id, so the same multiset of constraints always maps to
   the same id no matter in which order a caller accumulated them — and
   preprocessing first means queries that differ only in eliminated
   conjuncts (a definition spelled [x = 5] vs the constant 5 already
   propagated) also collide. A cached [Sat] model satisfies the
   preprocessed formula; each hit re-completes it against the hitting
   query's own eliminated variables. An [Unsat] keeps the evidence it
   was decided with, when there is any: the interval explanation of the
   residual, or the proof of the context that solved it. [Unknown]
   answers are never cached: they depend on the conflict budget. *)

type proof = {
  trimmed : Sat.trimmed;
  core : Term.t list;
  logged : int;
  extract_seconds : float;
  stored : bool;
}

type evidence = Explained of Interval.explanation | Proved of proof

module Cache = struct
  module B = Vdp_bitvec.Bitvec

  type t = {
    table : (int, outcome * evidence option * (int * B.t) list) Hashtbl.t;
        (* outcome, the evidence an [Unsat] was decided with (so a hit
           in a certifying context is certified from it), and the
           static-state slices (Static_data id, concrete key) the query
           depended on: a config mutation of one of those slices drops
           exactly the dependent entries *)
    order : int Queue.t;  (* insertion order, for FIFO eviction *)
    capacity : int;
    lock : Mutex.t;
        (* taken only in parallel mode: a cache may then be shared by
           every worker domain (lookup/insert stay individually atomic;
           a racing duplicate solve is harmless and [add] dedupes) *)
    mutable invalidated : int;  (* entries dropped by invalidate_static *)
  }

  let create ?(capacity = 1 lsl 14) () =
    {
      table = Hashtbl.create 256;
      order = Queue.create ();
      capacity;
      lock = Mutex.create ();
      invalidated = 0;
    }

  let guarded c f =
    if Par.active () then begin
      Mutex.lock c.lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f
    end
    else f ()

  let clear c =
    guarded c (fun () ->
        Hashtbl.reset c.table;
        Queue.clear c.order)

  let length c = guarded c (fun () -> Hashtbl.length c.table)

  let find c id =
    guarded c (fun () ->
        Option.map (fun (o, p, _) -> (o, p)) (Hashtbl.find_opt c.table id))

  (* Returns the number of evicted entries (0 or 1). An entry stored
     without evidence is upgraded in place when evidence arrives. *)
  let add c id outcome evidence deps =
    guarded c (fun () ->
        match Hashtbl.find_opt c.table id with
        | Some (_, None, _) when Option.is_some evidence ->
          Hashtbl.replace c.table id (outcome, evidence, deps);
          0
        | Some _ -> 0
        | None ->
          let evicted =
            if Hashtbl.length c.table >= c.capacity then begin
              (* Invalidation may have removed queued ids already; skip
                 those ghosts until a live victim falls out. *)
              let rec evict () =
                match Queue.take_opt c.order with
                | None -> 0
                | Some victim ->
                  if Hashtbl.mem c.table victim then begin
                    Hashtbl.remove c.table victim;
                    1
                  end
                  else evict ()
              in
              evict ()
            end
            else 0
          in
          Hashtbl.add c.table id (outcome, evidence, deps);
          Queue.add id c.order;
          evicted)

  (* Drop every entry that read the mutated (store, key) slice; ids
     linger in [order] and are skipped at eviction time. *)
  let invalidate_static c ~sid ~key =
    guarded c (fun () ->
        let victims =
          Hashtbl.fold
            (fun id (_, _, deps) acc ->
              if
                List.exists
                  (fun (sid', k) -> sid' = sid && B.equal k key)
                  deps
              then id :: acc
              else acc)
            c.table []
        in
        List.iter (Hashtbl.remove c.table) victims;
        let n = List.length victims in
        c.invalidated <- c.invalidated + n;
        n)

  let invalidations c = guarded c (fun () -> c.invalidated)
end

(* One shared cache: identical composite conditions recur across the
   crash-freedom, instruction-bound and reachability passes over the
   same pipeline, so sharing pays across properties. *)
let shared_cache = Cache.create ()

let validate_model conj m =
  if not (Eval.eval_bool m conj) then
    failwith
      (Printf.sprintf "Solver: extracted model fails to satisfy %s"
         (Term.to_string conj))

(* {1 Core solving}

   [sts] is the list of stats records to charge (the aggregate plus,
   for context-based solving, the context's own record). *)

let tally sts f = locked (fun () -> List.iter f sts)

let finish sts (o : outcome) =
  (match o with
  | Sat _ -> tally sts (fun s -> s.sat_answers <- s.sat_answers + 1)
  | Unsat -> tally sts (fun s -> s.unsat_answers <- s.unsat_answers + 1)
  | Unknown -> tally sts (fun s -> s.unknown_answers <- s.unknown_answers + 1));
  o

let cache_store sts cache id ?evidence outcome deps =
  match (cache, outcome) with
  | Some c, (Sat _ | Unsat) ->
    let evicted = Cache.add c id outcome evidence deps in
    if evicted > 0 then
      tally sts (fun s -> s.cache_evictions <- s.cache_evictions + evicted)
  | _ -> ()

type refutation =
  | Folded
  | Interval of Interval.explanation
  | Folded_pre of Preprocess.result
  | Interval_pre of Preprocess.result * Interval.explanation
  | Drat of Preprocess.result * proof

(* The shared front end: raw-level interval refutation, word-level
   preprocessing, constant folding, cache lookup, a second interval
   refutation on the residue, then [blast_and_solve] for the real
   work. The raw stage comes first because it is a shallow scan and
   kills the large majority of Step-2 queries — preprocessing them
   would be pure overhead. It decides on the conjunct list
   ([Term.conj_is_false], [Interval.explain_list]), so a query it
   kills never interns its conjunction. [blast_and_solve] receives the preprocessed
   conjuncts and returns a model of the *preprocessed* formula; the
   front end completes it with the eliminated variables' bindings and
   re-validates against the original conjunction, so neither a
   preprocessing nor a blasting bug can produce a bogus
   counterexample. [blast_and_solve] also returns the proof of an
   [Unsat], if it tracked one.

   Every [Unsat] that has evidence hands it to [on_refutation]. A
   [certifying] caller treats a cached [Unsat] without evidence as a
   miss: it decides the query itself, and the cache entry is upgraded
   with what it found. *)
let check_conj sts ?cache ?(deps = []) ?(certifying = false)
    ?(on_refutation = ignore) ~preprocess terms ~blast_and_solve =
  tally sts (fun s -> s.calls <- s.calls + 1);
  let refuted r =
    on_refutation r;
    finish sts Unsat
  in
  if Term.conj_is_false terms then begin
    tally sts (fun s -> s.folded <- s.folded + 1);
    refuted Folded
  end
  else
  match Interval.explain_list terms with
  | Some ex ->
    tally sts (fun s -> s.interval_refutations <- s.interval_refutations + 1);
    refuted (Interval ex)
  | None ->
  (* Only a query that survives the raw stage builds its conjunction. *)
  let raw = Term.and_ terms in
  let t0 = now () in
  let pre = if preprocess then Preprocess.run terms else Preprocess.identity terms in
  tally sts (fun s ->
      s.preprocess_time <- s.preprocess_time +. (now () -. t0);
      s.eliminated_conjuncts <- s.eliminated_conjuncts + pre.Preprocess.eliminated;
      s.sliced_conjuncts <- s.sliced_conjuncts + pre.Preprocess.sliced;
      s.solved_words <- s.solved_words + pre.Preprocess.solved);
  let key = pre.Preprocess.key in
  let accept m =
    let m = Preprocess.complete pre m in
    validate_model raw m;
    Sat m
  in
  let refuted_by = function
    | Some (Explained ex) -> refuted (Interval_pre (pre, ex))
    | Some (Proved p) -> refuted (Drat (pre, p))
    | None -> finish sts Unsat
  in
  if Term.is_true key then begin
    tally sts (fun s -> s.folded <- s.folded + 1);
    finish sts (accept (Model.create ()))
  end
  else if Term.is_false key then begin
    tally sts (fun s -> s.folded <- s.folded + 1);
    refuted (Folded_pre pre)
  end
  else
    let decide () =
      if cache <> None then
        tally sts (fun s -> s.cache_misses <- s.cache_misses + 1);
      let evidence, o =
        match if key != raw then Interval.explain key else None with
        | Some ex ->
          tally sts (fun s ->
              s.interval_refutations <- s.interval_refutations + 1);
          (Some (Explained ex), Unsat)
        | None ->
          let o, proof = blast_and_solve pre in
          (Option.map (fun p -> Proved p) proof, o)
      in
      cache_store sts cache key.Term.id ?evidence o deps;
      match o with
      | Sat m -> finish sts (accept m)
      | Unsat -> refuted_by evidence
      | Unknown -> finish sts Unknown
    in
    match Option.bind cache (fun c -> Cache.find c key.Term.id) with
    | None -> decide ()
    | Some (Unsat, None) when certifying -> decide ()
    | Some (o, evidence) -> (
      tally sts (fun s -> s.cache_hits <- s.cache_hits + 1);
      match o with
      | Sat m -> finish sts (accept m)
      | _ ->
        refuted_by
          (match evidence with
          | Some (Proved p) -> Some (Proved { p with stored = true })
          | e -> e))

(* Charge blast/solve phase timings and CNF growth to [sts]. *)
let instrumented sts bb ~blast ~solve =
  let sat = Bitblast.sat bb in
  let v0 = Sat.num_vars sat and c0 = Sat.num_problem_clauses sat in
  let gh0 = Bitblast.gate_hits bb and gm0 = Bitblast.gate_misses bb in
  let ld0 = Sat.num_learned_deleted sat in
  let t0 = now () in
  blast ();
  let t1 = now () in
  let r = solve () in
  let t2 = now () in
  tally sts (fun s ->
      s.blast_time <- s.blast_time +. (t1 -. t0);
      s.sat_time <- s.sat_time +. (t2 -. t1);
      s.sat_vars <- s.sat_vars + (Sat.num_vars sat - v0);
      s.sat_clauses <- s.sat_clauses + (Sat.num_problem_clauses sat - c0);
      s.gate_hits <- s.gate_hits + (Bitblast.gate_hits bb - gh0);
      s.gate_misses <- s.gate_misses + (Bitblast.gate_misses bb - gm0);
      s.learned_deleted <-
        s.learned_deleted + (Sat.num_learned_deleted sat - ld0));
  r

let check ?(max_conflicts = max_int) ?cache ?deps ?(preprocess = true) terms =
  check_conj [ stats ] ?cache ?deps ~preprocess terms ~blast_and_solve:(fun pre ->
      let bb = Bitblast.create () in
      let r =
        instrumented [ stats ] bb
          ~blast:(fun () ->
            List.iter (Bitblast.assert_term bb) pre.Preprocess.conjuncts)
          ~solve:(fun () -> Sat.solve ~max_conflicts (Bitblast.sat bb))
      in
      ( (match r with
        | Sat.Sat -> Sat (Bitblast.extract_model bb)
        | Sat.Unsat -> Unsat
        | Sat.Unknown -> Unknown),
        None ))

let is_sat ?max_conflicts terms =
  match check ?max_conflicts terms with
  | Sat _ | Unknown -> true
  | Unsat -> false

(* {1 Incremental contexts}

   A context keeps one bit-blaster (so the term DAG — and, with
   structural hashing, every distinct gate — is encoded once no matter
   how many checks see it) and a stack of scopes holding plain term
   lists. Each check preprocesses the live conjunction, then asserts
   the residual conjuncts under one fresh throwaway selector literal
   and solves with that single assumption; afterwards the selector is
   permanently negated, so the check's root clauses become satisfied at
   level 0 and are periodically swept out by [Sat.simplify]. Learned
   clauses, variable activities, gate encodings and the blasted term
   DAG all persist across checks, which is what makes sibling composite
   paths (sharing long constraint prefixes) cheap to check in
   sequence — while each individual check only pays for its own
   preprocessed (smaller) formula. *)

type scope = { mutable asserted : Term.t list (* newest first *) }

type ctx = {
  bb : Bitblast.ctx;
  mutable scopes : scope list;  (* innermost first; never empty *)
  cstats : stats;
  cache : Cache.t option;
  track_core : bool;
  mutable checks : int;  (* solved (non-cached) checks, for simplify cadence *)
  mutable last_refutation : refutation option;
      (* the evidence the last [check_ctx] decided an [Unsat] with *)
}

let create_ctx ?cache ?(track_core = false) () =
  {
    bb = Bitblast.create ~track:track_core ();
    scopes = [ { asserted = [] } ];
    cstats = fresh_stats ();
    cache;
    track_core;
    checks = 0;
    last_refutation = None;
  }

let ctx_stats ctx = ctx.cstats
let depth ctx = List.length ctx.scopes - 1

let push ctx = ctx.scopes <- { asserted = [] } :: ctx.scopes

let pop ctx =
  match ctx.scopes with
  | [] | [ _ ] -> invalid_arg "Solver.pop: no scope to pop"
  | _ :: rest -> ctx.scopes <- rest

let assert_terms ctx terms =
  match ctx.scopes with
  | [] -> assert false
  | sc :: _ ->
    List.iter
      (fun t -> if not (Term.is_true t) then sc.asserted <- t :: sc.asserted)
      terms

let assert_term ctx t = assert_terms ctx [ t ]

let asserted ctx = List.concat_map (fun sc -> sc.asserted) ctx.scopes

let last_refutation ctx = ctx.last_refutation

(* The cone of this check's refutation, read before the selector is
   retired. Old checks' clauses are level-0-satisfied by their retired
   selectors (and every clause learned from them carries that
   selector's negation), so the cone's tags all index into {e this}
   check's conjuncts. *)
let extract_proof sat ~selector conjuncts =
  let t0 = now () in
  let arr = Array.of_list conjuncts in
  let core =
    List.filter_map
      (fun i -> if i >= 0 && i < Array.length arr then Some arr.(i) else None)
      (List.sort_uniq Int.compare (Sat.last_cone_tags sat))
  in
  Option.map
    (fun trimmed ->
      {
        trimmed;
        core;
        logged = Sat.num_derived sat;
        extract_seconds = now () -. t0;
        stored = false;
      })
    (Sat.trimmed_proof ~assumptions:[ selector ] sat)

let check_ctx ?(max_conflicts = max_int) ?deps ctx =
  let sts = [ stats; ctx.cstats ] in
  ctx.last_refutation <- None;
  check_conj sts ?cache:ctx.cache ?deps ~preprocess:true
    ~certifying:ctx.track_core
    ~on_refutation:(fun r -> ctx.last_refutation <- Some r)
    (asserted ctx)
    ~blast_and_solve:(fun pre ->
      let sat = Bitblast.sat ctx.bb in
      ctx.checks <- ctx.checks + 1;
      if ctx.checks land 63 = 0 then Sat.simplify sat;
      let selector = Bitblast.fresh ctx.bb in
      let r =
        instrumented sts ctx.bb
          ~blast:(fun () ->
            if ctx.track_core then
              (* Tag each residual conjunct's root clause with its index
                 so an Unsat's dependency cone maps back to a core. *)
              List.iteri
                (fun i t -> Bitblast.assert_under ~tag:i ctx.bb ~selector t)
                pre.Preprocess.conjuncts
            else
              List.iter
                (fun t -> Bitblast.assert_under ctx.bb ~selector t)
              pre.Preprocess.conjuncts)
          ~solve:(fun () ->
            Sat.solve ~max_conflicts ~assumptions:[ selector ] sat)
      in
      (* Extract before retiring: adding the unit clause backtracks to
         level 0 and wipes the satisfying trail. *)
      let answer =
        match r with
        | Sat.Sat -> (Sat (Bitblast.extract_model ctx.bb), None)
        | Sat.Unsat ->
          ( Unsat,
            if ctx.track_core then
              extract_proof sat ~selector pre.Preprocess.conjuncts
            else None )
        | Sat.Unknown -> (Unknown, None)
      in
      (* Permanently retire the selector: this check's root clauses
         become satisfied at level 0 and never burden the search again. *)
      Sat.add_clause sat [ Sat.lit_not selector ];
      answer)

let pp_outcome fmt = function
  | Sat m -> Format.fprintf fmt "sat@ %a" Model.pp m
  | Unsat -> Format.pp_print_string fmt "unsat"
  | Unknown -> Format.pp_print_string fmt "unknown"
