(** Human-readable verification reports. *)

module P = Vdp_packet.Packet

(* A witness packet, its first 96 bytes hex-dumped. *)
let pp_packet fmt pkt =
  let shown =
    if P.length pkt <= 96 then pkt
    else begin
      let q = P.clone pkt in
      P.take q 96;
      q
    end
  in
  Format.fprintf fmt "witness packet (%d bytes%s):@,%s@," (P.length pkt)
    (if P.length pkt > 96 then ", first 96 shown" else "")
    (P.hex_dump shown)

let pp_violation fmt (v : Verifier.violation) =
  Format.fprintf fmt "@[<v2>violation at element '%s' (node %d): %a%s%s@,"
    v.Verifier.element v.Verifier.node Vdp_symbex.Engine.pp_outcome
    v.Verifier.outcome
    (if v.Verifier.confirmed then " [reproduced on the runtime]" else "")
    (if v.Verifier.stateful then " [depends on private state]" else "");
  let r = v.Verifier.replayed in
  (match r.Witness.status with
  | Witness.Confirmed -> ()
  | Witness.Unconfirmed why ->
    Format.fprintf fmt "replay did not reproduce it: %s@," why);
  (match r.Witness.state with
  | [] -> ()
  | state ->
    Format.fprintf fmt "initial state loaded for the replay:@,";
    List.iter
      (fun ((_, node), store, kvs) ->
        List.iter
          (fun (k, value) ->
            Format.fprintf fmt "  node %d %s[%s] = %s@," node store
              (Vdp_bitvec.Bitvec.to_string_hex k)
              (Vdp_bitvec.Bitvec.to_string_hex value))
          kvs)
      state);
  pp_packet fmt r.Witness.packet;
  Format.fprintf fmt "@]"

let pp_verdict fmt = function
  | Verifier.Proved -> Format.pp_print_string fmt "PROVED"
  | Verifier.Violated vs ->
    Format.fprintf fmt "VIOLATED (%d counterexamples)" (List.length vs)
  | Verifier.Unknown why -> Format.fprintf fmt "UNKNOWN (%s)" why

let pp_stats fmt (s : Verifier.stats) =
  Format.fprintf fmt
    "%d elements (%d freshly summarised), %d segments, %d suspects; %d \
     composite states, %d solver checks (%d refuted, %d unknown); step1 \
     %.2fs, step2 %.2fs"
    s.Verifier.elements s.Verifier.unique_summaries s.Verifier.segments_total
    s.Verifier.suspects s.Verifier.composite_paths s.Verifier.suspect_checks
    s.Verifier.refuted s.Verifier.unknown_checks s.Verifier.step1_time
    s.Verifier.step2_time

(** Per-phase solver activity (typically a delta over one verification
    run — callers reset or snapshot {!Vdp_smt.Solver.stats}). *)
let pp_solver_stats fmt (s : Vdp_smt.Solver.stats) =
  let module SS = Vdp_smt.Solver in
  let gate_total = s.SS.gate_hits + s.SS.gate_misses in
  Format.fprintf fmt
    "solver: %d queries (%d folded by preprocessing, %d cache hits, %d \
     interval-refuted); %d conjuncts eliminated, %d sliced, %d checksum \
     words solved; %d SAT vars, %d \
     clauses, gate cache %d/%d hits (%.0f%%), %d learned clauses reduced; \
     preprocess %.2fs, bit-blast %.2fs, SAT %.2fs"
    s.SS.calls s.SS.folded s.SS.cache_hits s.SS.interval_refutations
    s.SS.eliminated_conjuncts s.SS.sliced_conjuncts s.SS.solved_words
    s.SS.sat_vars
    s.SS.sat_clauses s.SS.gate_hits gate_total
    (if gate_total = 0 then 0.
     else 100. *. float_of_int s.SS.gate_hits /. float_of_int gate_total)
    s.SS.learned_deleted s.SS.preprocess_time s.SS.blast_time s.SS.sat_time;
  if s.SS.sched_spawned > 0 then
    Format.fprintf fmt
      "@,scheduler: %d tasks (%d executed, %d stolen); busy %.2fs, idle \
       %.2fs; durations <1ms:%d <10ms:%d <100ms:%d <1s:%d >=1s:%d"
      s.SS.sched_spawned s.SS.sched_executed s.SS.sched_stolen s.SS.sched_busy
      s.SS.sched_idle s.SS.sched_hist.(0) s.SS.sched_hist.(1)
      s.SS.sched_hist.(2) s.SS.sched_hist.(3) s.SS.sched_hist.(4)

(** Certification summary: how each refuted suspect-path query was
    discharged and whether the independent checkers accepted it. *)
let pp_cert_summary fmt (c : Vdp_cert.Certificate.summary) =
  let module C = Vdp_cert.Certificate in
  Format.fprintf fmt
    "certificates: %d/%d refutations certified (%d folded, %d interval, %d \
     DRAT, %d by provenance); DRAT %d in-context, %d from query-cache \
     hits; %d proof clauses (of %d logged); check %.2fs"
    c.C.certified c.C.attempted c.C.folded c.C.interval c.C.drat c.C.cached
    c.C.drat_ctx c.C.pcache_hits c.C.proof_clauses c.C.untrimmed_clauses
    c.C.check_seconds;
  if c.C.failed > 0 then begin
    Format.fprintf fmt "@,  %d UNCERTIFIED" c.C.failed;
    List.iter (fun m -> Format.fprintf fmt "@,    %s" m) c.C.failures
  end

let pp_cert_opt fmt = function
  | None -> ()
  | Some c -> Format.fprintf fmt "  %a@," pp_cert_summary c

let pp_report fmt (r : Verifier.report) =
  Format.fprintf fmt "@[<v>crash freedom: %a@,  %a@,%a" pp_verdict
    r.Verifier.verdict pp_stats r.Verifier.stats pp_cert_opt r.Verifier.cert;
  (match r.Verifier.verdict with
  | Verifier.Violated vs -> List.iter (pp_violation fmt) vs
  | _ -> ());
  Format.fprintf fmt "@]"

let pp_bound_report fmt (r : Verifier.bound_report) =
  Format.fprintf fmt "@[<v>bounded execution: ";
  (match r.Verifier.bound with
  | Some b ->
    Format.fprintf fmt "<= %d instructions per packet (%s)" b
      (if r.Verifier.exact then "exact maximum" else "upper bound")
  | None -> Format.fprintf fmt "no feasible path found");
  (match r.Verifier.measured with
  | Some m -> Format.fprintf fmt "; witness measured at %d instructions" m
  | None -> ());
  (match r.Verifier.b_replayed with
  | Some { Witness.status = Witness.Unconfirmed why; _ } ->
    Format.fprintf fmt "@,  replay did not reproduce the bound: %s" why
  | _ -> ());
  Format.fprintf fmt "@,  %a@,%a" pp_stats r.Verifier.b_stats pp_cert_opt
    r.Verifier.b_cert;
  (match r.Verifier.witness with
  | Some pkt -> Format.fprintf fmt "  %a" pp_packet pkt
  | None -> ());
  Format.fprintf fmt "@]"

let to_string pp v = Format.asprintf "%a" pp v
