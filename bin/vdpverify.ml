(* vdpverify — verify a Click-style pipeline configuration.

   Examples:
     vdpverify crash router.click
     vdpverify crash --monolithic --budget 50000 router.click
     vdpverify bound router.click
     vdpverify verify --certify router.click
     vdpverify cert router.click
     vdpverify isolate examples/multi_tenant.click
     vdpverify reach fabric.click t1 wan
     vdpverify classes *)

module E = Vdp_symbex.Engine
module V = Vdp_verif.Verifier
module C = Vdp_cert.Certificate

open Cmdliner

let config_arg =
  let doc = "Pipeline configuration file (Click-like syntax)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"CONFIG" ~doc)

let max_len_arg =
  let doc = "Assumed maximum frame length in bytes." in
  Arg.(value & opt int 1514 & info [ "max-len" ] ~doc)

let budget_arg =
  let doc = "Path budget for the monolithic baseline." in
  Arg.(value & opt int 200_000 & info [ "budget" ] ~doc)

let monolithic_arg =
  let doc =
    "Verify the inlined whole-pipeline program instead of using pipeline \
     decomposition (slow; may not finish)."
  in
  Arg.(value & flag & info [ "monolithic" ] ~doc)

let jobs_arg =
  let doc =
    "Number of domains for Step-1 symbolic execution and Step-2 suspect-path \
     checking (default 1 = fully sequential)."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let certify_arg =
  let doc =
    "Produce and independently check a proof certificate for every refuted \
     suspect-path query (constant folding, interval-explanation replay, or \
     a DRAT proof over the bit-blasted query validated by a separate \
     checker). A PROVED verdict that carries any uncertified refutation \
     exits with status 3."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

let load path =
  try Ok (Vdp_click.Config.parse_file path) with
  | Vdp_click.Config.Parse_error m ->
    Error (Printf.sprintf "parse error: %s" m)
  | Vdp_click.Registry.Unknown_class c ->
    Error (Printf.sprintf "unknown element class: %s" c)
  | Vdp_click.Registry.Bad_config (cls, m) ->
    Error (Printf.sprintf "bad configuration for %s: %s" cls m)
  | Invalid_argument m -> Error m

let verifier_config max_len ~jobs ~certify =
  {
    V.default_config with
    V.engine = { E.default_config with E.max_len };
    V.jobs = max 1 jobs;
    V.certify = certify;
  }

(* No certification requested, or every refutation certified. *)
let cert_clean = function None -> true | Some c -> c.C.failed = 0

let verdict_code verdict cert =
  match verdict with
  | V.Proved -> if cert_clean cert then 0 else 3
  | _ -> 2

let crash_cmd =
  let run config_path max_len monolithic budget jobs certify =
    match load config_path with
    | Error m ->
      Format.eprintf "error: %s@." m;
      1
    | Ok pl ->
      if monolithic then begin
        let engine_config =
          {
            Vdp_verif.Monolithic.default_engine_config with
            E.max_paths = budget;
            E.max_len;
          }
        in
        match Vdp_verif.Monolithic.check_crash_freedom ~engine_config pl with
        | Vdp_verif.Monolithic.Completed { verdict; paths; time } ->
          Format.printf "monolithic: %s (%d paths, %.2fs)@."
            (match verdict with
            | `Proved -> "PROVED"
            | `Violated n -> Printf.sprintf "VIOLATED (%d)" n)
            paths time;
          0
        | Vdp_verif.Monolithic.Did_not_finish { paths_explored; time } ->
          Format.printf
            "monolithic: DID NOT FINISH (budget %d paths; explored >= %d in \
             %.2fs)@."
            budget paths_explored time;
          2
      end
      else begin
        let config = verifier_config max_len ~jobs ~certify in
        Vdp_smt.Solver.reset_stats ();
        let r = V.check_crash_freedom ~config pl in
        Format.printf "%a  %a@.@." Vdp_verif.Report.pp_report r
          Vdp_verif.Report.pp_solver_stats Vdp_smt.Solver.stats;
        verdict_code r.V.verdict r.V.cert
      end
  in
  let doc = "Prove crash freedom (or produce crashing packets)." in
  Cmd.v
    (Cmd.info "crash" ~doc)
    Term.(
      const run $ config_arg $ max_len_arg $ monolithic_arg $ budget_arg
      $ jobs_arg $ certify_arg)

let bound_cmd =
  let run config_path max_len jobs certify =
    match load config_path with
    | Error m ->
      Format.eprintf "error: %s@." m;
      1
    | Ok pl ->
      let config = verifier_config max_len ~jobs ~certify in
      Vdp_smt.Solver.reset_stats ();
      let r = V.instruction_bound ~config pl in
      Format.printf "%a  %a@.@." Vdp_verif.Report.pp_bound_report r
        Vdp_verif.Report.pp_solver_stats Vdp_smt.Solver.stats;
      verdict_code r.V.b_verdict r.V.b_cert
  in
  let doc = "Prove a per-packet instruction bound and find the witness." in
  Cmd.v
    (Cmd.info "bound" ~doc)
    Term.(
      const run $ config_arg $ max_len_arg $ jobs_arg $ certify_arg)

(* Crash freedom + instruction bound in one run — the "is this pipeline
   fit to ship" command. With [--certify], both properties' refutations
   must additionally carry independently checked certificates. *)
let verify_cmd =
  let run config_path max_len jobs certify =
    match load config_path with
    | Error m ->
      Format.eprintf "error: %s@." m;
      1
    | Ok pl ->
      let config = verifier_config max_len ~jobs ~certify in
      Vdp_smt.Solver.reset_stats ();
      let rc = V.check_crash_freedom ~config pl in
      Format.printf "%a@." Vdp_verif.Report.pp_report rc;
      let rb = V.instruction_bound ~config pl in
      Format.printf "%a  %a@.@." Vdp_verif.Report.pp_bound_report rb
        Vdp_verif.Report.pp_solver_stats Vdp_smt.Solver.stats;
      max (verdict_code rc.V.verdict rc.V.cert)
        (verdict_code rb.V.b_verdict rb.V.b_cert)
  in
  let doc =
    "Prove crash freedom and the instruction bound together; with \
     $(b,--certify), fail unless every refutation behind the verdicts is \
     independently certified."
  in
  Cmd.v
    (Cmd.info "verify" ~doc)
    Term.(
      const run $ config_arg $ max_len_arg $ jobs_arg $ certify_arg)

(* Certification-focused view: run both properties with certificates
   forced on and report certified/uncertified counts per verdict. *)
let cert_cmd =
  let run config_path max_len jobs =
    match load config_path with
    | Error m ->
      Format.eprintf "error: %s@." m;
      1
    | Ok pl ->
      let config = verifier_config max_len ~jobs ~certify:true in
      Vdp_smt.Solver.reset_stats ();
      let rc = V.check_crash_freedom ~config pl in
      let rb = V.instruction_bound ~config pl in
      let line name verdict cert =
        match cert with
        | None -> ()
        | Some (c : C.summary) ->
          Format.printf
            "%-16s %-12s certified %d/%d (uncertified %d)@.    %a@." name
            (Vdp_verif.Report.to_string Vdp_verif.Report.pp_verdict verdict)
            c.C.certified c.C.attempted c.C.failed
            Vdp_verif.Report.pp_cert_summary c
      in
      line "crash freedom" rc.V.verdict rc.V.cert;
      line "instr bound" rb.V.b_verdict rb.V.b_cert;
      max (verdict_code rc.V.verdict rc.V.cert)
        (verdict_code rb.V.b_verdict rb.V.b_cert)
  in
  let doc =
    "Certify both properties' verdicts: every refuted suspect-path query \
     must come with a proof the independent checker accepts; report \
     certified/uncertified counts per verdict."
  in
  Cmd.v
    (Cmd.info "cert" ~doc)
    Term.(
      const run $ config_arg $ max_len_arg $ jobs_arg)

(* Verify, apply live route-table changes, re-verify incrementally.
   The second run reuses every Step-1 summary and Step-2 query-cache
   entry that did not depend on the mutated (store, key) slices, so the
   re-verification cost tracks the size of the change, not the size of
   the table. *)
let delta_cmd =
  let module Fib = Vdp_click.El_lookup.Fib in
  let parse_cidr s =
    match String.split_on_char '/' (String.trim s) with
    | [ addr; len ] -> (Vdp_packet.Ipv4.addr_of_string addr, int_of_string len)
    | _ -> invalid_arg (Printf.sprintf "bad prefix %S (want A.B.C.D/len)" s)
  in
  let run config_path max_len adds dels jobs =
    match load config_path with
    | Error m ->
      Format.eprintf "error: %s@." m;
      1
    | Ok pl -> (
      let fib =
        Array.fold_left
          (fun acc (n : Vdp_click.Pipeline.node) ->
            match acc with
            | Some _ -> acc
            | None ->
              Fib.of_program
                n.Vdp_click.Pipeline.element.Vdp_click.Element.program)
          None (Vdp_click.Pipeline.nodes pl)
      in
      match fib with
      | None ->
        Format.eprintf
          "error: no element with a mutable FIB (RadixIPLookup) in %s@."
          config_path;
        1
      | Some fib -> (
        let config = verifier_config max_len ~jobs ~certify:false in
        Vdp_smt.Solver.reset_stats ();
        Vdp_verif.Staleness.reset_stats ();
        let session = V.session ~config pl in
        let t0 = Unix.gettimeofday () in
        let r1, _ = V.verify_crash session in
        let dt1 = Unix.gettimeofday () -. t0 in
        Format.printf "initial:   %a  (%.3fs, %d routes)@."
          Vdp_verif.Report.pp_verdict r1.V.verdict dt1 (Fib.count fib);
        match
          List.iter
            (fun s ->
              let prefix, plen = parse_cidr s in
              if not (Fib.delete fib ~prefix ~plen) then
                Format.eprintf "warning: no route %s to delete@." s)
            dels;
          List.iter
            (fun s -> Fib.insert fib (Vdp_click.El_lookup.parse_route s))
            adds
        with
        | exception Invalid_argument m ->
          Format.eprintf "error: %s@." m;
          1
        | () ->
          let nchanges = List.length adds + List.length dels in
          let t1 = Unix.gettimeofday () in
          let r2, reused = V.verify_crash session in
          let dt2 = Unix.gettimeofday () -. t1 in
          let s = Vdp_verif.Staleness.stats in
          Format.printf
            "re-verify: %a  (%.3fs after %d change(s)%s)@.  staleness: %d \
             slot writes, %d summaries + %d cached queries invalidated%s@."
            Vdp_verif.Report.pp_verdict r2.V.verdict dt2 nchanges
            (if dt2 > 0. && dt1 > 0. then
               Printf.sprintf ", %.0fx vs initial" (dt1 /. dt2)
             else "")
            s.Vdp_verif.Staleness.mutations
            s.Vdp_verif.Staleness.summaries_dropped
            s.Vdp_verif.Staleness.queries_dropped
            (if reused then "; verdict reused (no dependent state changed)"
             else "");
          max (verdict_code r1.V.verdict None) (verdict_code r2.V.verdict None)
        ))
  in
  let add_arg =
    let doc =
      "Insert a route before re-verifying, in StaticIPLookup syntax: \
       $(i,\"A.B.C.D/len port\") or $(i,\"A.B.C.D/len gateway port\"). \
       Repeatable."
    in
    Arg.(value & opt_all string [] & info [ "add" ] ~docv:"ROUTE" ~doc)
  in
  let del_arg =
    let doc =
      "Delete the route for prefix $(i,A.B.C.D/len) before re-verifying. \
       Repeatable."
    in
    Arg.(value & opt_all string [] & info [ "del" ] ~docv:"PREFIX" ~doc)
  in
  let doc =
    "Prove crash freedom, apply route-table changes to the pipeline's \
     RadixIPLookup FIB, and re-verify incrementally: only summaries and \
     cached queries that read the mutated table slices are recomputed, so \
     the second verdict arrives in time proportional to the change."
  in
  Cmd.v
    (Cmd.info "delta" ~doc)
    Term.(
      const run $ config_arg $ max_len_arg $ add_arg $ del_arg $ jobs_arg)

let engine_arg =
  let engine_conv =
    Arg.conv
      ( (fun s ->
          match Vdp_click.Runtime.engine_of_string s with
          | Some e -> Ok e
          | None ->
            Error (`Msg (Printf.sprintf "unknown engine %S" s))),
        fun fmt e ->
          Format.pp_print_string fmt (Vdp_click.Runtime.engine_name e) )
  in
  let doc =
    "Concrete runtime engine: $(b,scalar) (per-packet interpreter) or \
     $(b,compiled) (element IR lowered to closures, run over a \
     preallocated batch ring)."
  in
  Arg.(
    value
    & opt engine_conv Vdp_click.Runtime.Scalar
    & info [ "engine" ] ~docv:"ENGINE" ~doc)

let replay_cmd =
  let run config_path max_len count seed jobs engine =
    match load config_path with
    | Error m ->
      Format.eprintf "error: %s@." m;
      1
    | Ok pl ->
      let config = { E.default_config with E.max_len } in
      let r =
        if jobs <= 1 then
          Vdp_verif.Witness.differential ~config ~engine ~seed ~count pl
        else
          Vdp_verif.Pool.with_pool jobs (fun pool ->
              Vdp_verif.Witness.differential ~pool ~config ~engine ~seed
                ~count pl)
      in
      Format.printf
        "differential: %d packets, %d hops (%d matched approximately), %d \
         disagreement(s)@."
        r.Vdp_verif.Witness.f_packets r.Vdp_verif.Witness.f_hops
        r.Vdp_verif.Witness.f_approx
        (List.length r.Vdp_verif.Witness.f_failures);
      List.iter
        (fun (i, m) -> Format.printf "  packet %d: %s@." i m)
        r.Vdp_verif.Witness.f_failures;
      if r.Vdp_verif.Witness.f_failures = [] then 0 else 2
  in
  let count_arg =
    let doc = "Number of fuzzed packets to run through both sides." in
    Arg.(value & opt int 500 & info [ "n"; "count" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Random seed for the packet workload." in
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let doc =
    "Differential fuzzing: run random packets through the concrete runtime \
     and the symbolic summaries side by side; any disagreement on path, \
     state, packet contents or instruction counts is a verifier bug."
  in
  Cmd.v
    (Cmd.info "replay" ~doc)
    Term.(
      const run $ config_arg $ max_len_arg $ count_arg $ seed_arg $ jobs_arg
      $ engine_arg)

let pump_cmd =
  let run config_path count seed engine batch =
    match load config_path with
    | Error m ->
      Format.eprintf "error: %s@." m;
      1
    | Ok pl -> (
      match Vdp_click.Runtime.instantiate ~engine ~batch pl with
      | exception Invalid_argument m ->
        Format.eprintf "error: %s@." m;
        1
      | inst ->
        let pkts = Vdp_packet.Gen.workload ~seed count in
        let t0 = Unix.gettimeofday () in
        let st = Vdp_click.Runtime.run_workload inst pkts in
        let dt = Unix.gettimeofday () -. t0 in
        let name = Vdp_click.Runtime.engine_name engine in
        let open Vdp_click.Runtime in
        Format.printf
          "%s engine: %d packets in %.3fs (%.0f pps)@.  egressed %d, \
           dropped %d, crashed %d, hop-budget %d@.  %d instructions total, \
           max %d per packet@."
          name st.sent dt
          (if dt > 0. then float_of_int st.sent /. dt else 0.)
          st.egressed st.dropped st.crashed st.hop_budget st.instrs
          st.max_instrs;
        0)
  in
  let count_arg =
    let doc = "Number of generated packets to pump through the pipeline." in
    Arg.(value & opt int 100_000 & info [ "n"; "count" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Random seed for the packet workload." in
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let batch_arg =
    let doc = "Batch ring capacity for the compiled engine." in
    Arg.(
      value
      & opt int Vdp_click.Runtime.default_batch
      & info [ "batch" ] ~docv:"N" ~doc)
  in
  let doc =
    "Drive a generated workload through the concrete runtime and report \
     throughput and outcome statistics (the paper's \"verified need not be \
     slow\" demo; compare $(b,--engine) scalar/compiled)."
  in
  Cmd.v
    (Cmd.info "pump" ~doc)
    Term.(
      const run $ config_arg $ count_arg $ seed_arg $ engine_arg $ batch_arg)

(* {1 Topology queries: reach / isolate} *)

module Q = Vdp_topo.Query

let load_fabric path =
  try Ok (Vdp_topo.Fabric.of_source path) with
  | Vdp_click.Config.Parse_error m ->
    Error (Printf.sprintf "parse error: %s" m)
  | Vdp_topo.Fabric.Bad_fabric m -> Error m
  | Vdp_click.Registry.Unknown_class c ->
    Error (Printf.sprintf "unknown element class: %s" c)
  | Vdp_click.Registry.Bad_config (cls, m) ->
    Error (Printf.sprintf "bad configuration for %s: %s" cls m)
  | Invalid_argument m -> Error m

let topo_config max_len ~certify =
  {
    Q.default_config with
    Q.engine = { E.default_config with E.max_len };
    Q.certify = certify;
  }

(* 0 = as expected; 2 = property fails / undecided; 3 = untrusted
   result (a breach flow that did not replay-confirm, or a verdict
   whose requested certificates did not all check). *)
let topo_code (r : Q.report) =
  match r.Q.verdict with
  | Q.Holds _ -> if Q.cert_complete r.Q.cert then 0 else 3
  | Q.Fails _ -> if Q.all_confirmed r then 2 else 3
  | Q.Unknown _ -> 2

let print_topo_report (r : Q.report) =
  let module P = Vdp_packet.Packet in
  Format.printf "%-28s %s  [depth %d, %d paths, %d checks, %.2fs]@."
    (Q.prop_to_string r.Q.prop ^ ":")
    (Q.verdict_to_string r.Q.verdict)
    r.Q.depth r.Q.paths r.Q.checks r.Q.time;
  let flows =
    match r.Q.verdict with
    | Q.Fails (flows, _) -> flows
    | Q.Holds (Some f) -> [ f ]
    | _ -> []
  in
  List.iter
    (fun (f : Q.flow) ->
      Format.printf "    %s%s: %d-byte packet -> %s%s@."
        (match f.Q.w_prime with
        | Some (n, p) ->
          Printf.sprintf "[primed via %s, %d bytes] " n (P.length p)
        | None -> "")
        f.Q.w_ingress (P.length f.Q.w_packet) f.Q.w_end
        (if f.Q.w_confirmed then " (replay confirmed)"
         else
           Printf.sprintf " (UNCONFIRMED%s)"
             (match f.Q.w_note with Some n -> ": " ^ n | None -> "")))
    flows;
  match r.Q.cert with
  | Some c ->
    Format.printf "    certificates: %d/%d checked (%d failed)@."
      c.C.certified c.C.attempted c.C.failed
  | None -> ()

let print_crash_report (c : Q.crash_report) =
  let module P = Vdp_packet.Packet in
  Format.printf "%-28s %s  [%d paths, <= %d instrs/packet]@."
    "fabric crash-freedom:"
    (Q.verdict_to_string c.Q.c_verdict)
    c.Q.c_paths c.Q.c_max_instrs;
  (match c.Q.c_verdict with
  | Q.Fails (flows, _) ->
    List.iter
      (fun (f : Q.flow) ->
        Format.printf "    %s: %d-byte packet -> %s%s@." f.Q.w_ingress
          (P.length f.Q.w_packet) f.Q.w_end
          (if f.Q.w_confirmed then " (replay confirmed)"
           else
             Printf.sprintf " (UNCONFIRMED%s)"
               (match f.Q.w_note with Some n -> ": " ^ n | None -> "")))
      flows
  | _ -> ());
  match c.Q.c_cert with
  | Some s ->
    Format.printf "    certificates: %d/%d checked (%d failed)@."
      s.C.certified s.C.attempted s.C.failed
  | None -> ()

let crash_code (c : Q.crash_report) =
  match c.Q.c_verdict with
  | Q.Holds _ -> if Q.cert_complete c.Q.c_cert then 0 else 3
  | Q.Fails (flows, _) ->
    if List.for_all (fun f -> f.Q.w_confirmed) flows then 2 else 3
  | Q.Unknown _ -> 2

(* Run the selected declared properties (or one explicit pair).
   [crash] additionally verifies per-fabric crash-freedom — every
   feasible crash end from any ingress, headroom exhaustion included —
   and reports the worst-case instruction bound. *)
let run_topo ?(crash = false) config_path max_len certify ingress egress
    ~select ~mk =
  match load_fabric config_path with
  | Error m ->
    Format.eprintf "error: %s@." m;
    1
  | Ok fab -> (
    let props =
      match (ingress, egress) with
      | Some a, Some b -> Ok [ mk a b ]
      | None, None -> (
        match List.filter select fab.Vdp_topo.Fabric.props with
        | [] ->
          Error
            (Printf.sprintf "%s declares no matching property" config_path)
        | ps -> Ok ps)
      | _ -> Error "give both INGRESS and EGRESS, or neither"
    in
    match props with
    | Error m ->
      Format.eprintf "error: %s@." m;
      1
    | Ok props -> (
      let config = topo_config max_len ~certify in
      try
        let rel =
          Vdp_topo.Relation.build ~config:config.Q.engine fab
        in
        let code =
          List.fold_left
            (fun code p ->
              let r = Q.run ~config rel p in
              print_topo_report r;
              max code (topo_code r))
            0 props
        in
        if crash then begin
          let c = Q.verify_crash ~config rel in
          print_crash_report c;
          max code (crash_code c)
        end
        else code
      with Vdp_topo.Fabric.Bad_fabric m ->
        Format.eprintf "error: %s@." m;
        1))

let topo_ingress_arg =
  let doc = "Fabric ingress name (with EGRESS, overrides declared props)." in
  Arg.(value & pos 1 (some string) None & info [] ~docv:"INGRESS" ~doc)

let topo_egress_arg =
  let doc = "Fabric egress name." in
  Arg.(value & pos 2 (some string) None & info [] ~docv:"EGRESS" ~doc)

let reach_cmd =
  let run config_path max_len certify ingress egress =
    run_topo config_path max_len certify ingress egress
      ~select:(function Vdp_click.Config.Reach _ -> true | _ -> false)
      ~mk:(fun a b -> Vdp_click.Config.Reach (a, b))
  in
  let doc =
    "Decide reachability across a topology: some packet injected at the \
     INGRESS pipeline comes out at the EGRESS point. A positive answer \
     must carry a witness packet whose replay through the wired concrete \
     runtimes confirms the path. Without an explicit pair, runs every \
     $(b,reach) property declared in the topology file."
  in
  Cmd.v
    (Cmd.info "reach" ~doc)
    Term.(
      const run $ config_arg $ max_len_arg $ certify_arg $ topo_ingress_arg
      $ topo_egress_arg)

let isolate_cmd =
  let run config_path max_len certify ingress egress =
    run_topo ~crash:true config_path max_len certify ingress egress
      ~select:(function
        | Vdp_click.Config.Isolate _ | Vdp_click.Config.Temporal _ -> true
        | _ -> false)
      ~mk:(fun a b -> Vdp_click.Config.Isolate (a, b))
  in
  let doc =
    "Decide isolation across a topology: no packet injected at the INGRESS \
     pipeline ever comes out at the EGRESS point, neither from a cold \
     (boot-state) fabric nor after one priming packet from any ingress \
     (the NAT case). Every claimed breach is replayed end-to-end through \
     the wired runtimes and tagged confirmed/unconfirmed; with \
     $(b,--certify), every refutation behind a holds verdict must carry a \
     checked certificate. Without an explicit pair, runs every \
     $(b,isolate) and $(b,temporal) property declared in the file. Also \
     verifies per-fabric crash-freedom (headroom exhaustion included) and \
     reports the worst-case instruction bound."
  in
  Cmd.v
    (Cmd.info "isolate" ~doc)
    Term.(
      const run $ config_arg $ max_len_arg $ certify_arg $ topo_ingress_arg
      $ topo_egress_arg)

let show_cmd =
  let run config_path =
    match load config_path with
    | Error m ->
      Format.eprintf "error: %s@." m;
      1
    | Ok pl ->
      Format.printf "%a@." Vdp_click.Pipeline.pp pl;
      0
  in
  let doc = "Parse and display a pipeline configuration." in
  Cmd.v (Cmd.info "show" ~doc) Term.(const run $ config_arg)

let classes_cmd =
  let run () =
    List.iter print_endline (Vdp_click.Registry.classes ());
    0
  in
  let doc = "List the available element classes." in
  Cmd.v (Cmd.info "classes" ~doc) Term.(const run $ const ())

let main =
  let doc = "verify software-dataplane pipelines" in
  Cmd.group
    (Cmd.info "vdpverify" ~version:"1.0.0" ~doc)
    [ crash_cmd; bound_cmd; verify_cmd; cert_cmd; delta_cmd; reach_cmd;
      isolate_cmd; replay_cmd; pump_cmd; show_cmd; classes_cmd ]

let () = exit (Cmd.eval' main)
