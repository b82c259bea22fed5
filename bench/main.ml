(* Benchmark harness: regenerates every figure and in-text result of
   the paper's evaluation (see DESIGN.md's experiment index), plus
   Bechamel micro-benchmarks of the substrates.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- e3      # one experiment *)

module B = Vdp_bitvec.Bitvec
module T = Vdp_smt.Term
module Solver = Vdp_smt.Solver
module Ir = Vdp_ir.Types
module P = Vdp_packet.Packet
module Ipv4 = Vdp_packet.Ipv4
module Gen = Vdp_packet.Gen
module Click = Vdp_click
module E = Vdp_symbex.Engine
module S = Vdp_symbex.Sstate
module V = Vdp_verif.Verifier
module Mono = Vdp_verif.Monolithic
module Summaries = Vdp_verif.Summaries

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')


let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* {1 Machine-readable results}

   Each experiment writes BENCH_<exp>.json next to the text report so
   scripts can track numbers across runs without scraping stdout. The
   driver supplies the experiment name and wall time; experiments add
   their own fields with [record]. *)

module Json = struct
  type t =
    | Str of string
    | Int of int
    | Float of float
    | Bool of bool
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec emit buf = function
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (Printf.sprintf "%.6g" f)
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf (Str k);
          Buffer.add_char buf ':';
          emit buf v)
        kvs;
      Buffer.add_char buf '}'

  let write path j =
    let buf = Buffer.create 1_024 in
    emit buf j;
    Buffer.add_char buf '\n';
    let oc = open_out path in
    Buffer.output_buffer oc buf;
    close_out oc
end

let json_fields : (string * Json.t) list ref = ref []
let record k v = json_fields := !json_fields @ [ (k, v) ]

(* Every BENCH file carries the same top-level shape:
   {"experiment", "wall_seconds", <experiment fields>, "solver_stats"}.
   The solver counters are reset by the driver at the start of each
   experiment, so the object is a per-experiment delta. *)
let solver_stats_json () =
  let s = Solver.stats in
  Json.Obj
    [
      ("queries", Json.Int s.Solver.calls);
      ("sat", Json.Int s.Solver.sat_answers);
      ("unsat", Json.Int s.Solver.unsat_answers);
      ("unknown", Json.Int s.Solver.unknown_answers);
      ("folded", Json.Int s.Solver.folded);
      ("cache_hits", Json.Int s.Solver.cache_hits);
      ("cache_misses", Json.Int s.Solver.cache_misses);
      ("interval_refuted", Json.Int s.Solver.interval_refutations);
      ("eliminated_conjuncts", Json.Int s.Solver.eliminated_conjuncts);
      ("sliced_conjuncts", Json.Int s.Solver.sliced_conjuncts);
      ("sat_vars", Json.Int s.Solver.sat_vars);
      ("sat_clauses", Json.Int s.Solver.sat_clauses);
      ("gate_hits", Json.Int s.Solver.gate_hits);
      ("gate_misses", Json.Int s.Solver.gate_misses);
      ("learned_deleted", Json.Int s.Solver.learned_deleted);
      ("preprocess_seconds", Json.Float s.Solver.preprocess_time);
      ("blast_seconds", Json.Float s.Solver.blast_time);
      ("sat_seconds", Json.Float s.Solver.sat_time);
      ( "cert_stats",
        Json.Obj
          [
            ("attempted", Json.Int s.Solver.cert_attempted);
            ("checked", Json.Int s.Solver.cert_checked);
            ("failed", Json.Int s.Solver.cert_failed);
            ("cached", Json.Int s.Solver.cert_cached);
            ("drat", Json.Int s.Solver.cert_drat);
            ("interval", Json.Int s.Solver.cert_interval);
            ("folded", Json.Int s.Solver.cert_folded);
            ("proof_clauses", Json.Int s.Solver.cert_proof_clauses);
            ("proof_deletions", Json.Int s.Solver.cert_proof_deletions);
            ("pcache_hits", Json.Int s.Solver.cert_pcache_hits);
            ("trimmed_clauses", Json.Int s.Solver.cert_trimmed_clauses);
            ("untrimmed_clauses", Json.Int s.Solver.cert_untrimmed_clauses);
            ("solve_seconds", Json.Float s.Solver.cert_solve_time);
            ("check_seconds", Json.Float s.Solver.cert_check_time);
          ] );
      ( "scheduler",
        Json.Obj
          [
            ("tasks_spawned", Json.Int s.Solver.sched_spawned);
            ("tasks_executed", Json.Int s.Solver.sched_executed);
            ("tasks_stolen", Json.Int s.Solver.sched_stolen);
            ("busy_seconds", Json.Float s.Solver.sched_busy);
            ("idle_seconds", Json.Float s.Solver.sched_idle);
            ( "task_seconds_histogram",
              Json.List
                (Array.to_list
                   (Array.map (fun n -> Json.Int n) s.Solver.sched_hist)) );
          ] );
    ]

(* Experiments that double as checks (E8) flip this on failure; the
   driver still writes their JSON before exiting nonzero. *)
let exit_code = ref 0

let verdict_str v =
  Format.asprintf "%a" Vdp_verif.Report.pp_verdict v

(* The element chain of the Click IP-router configuration (paper §3,
   "Preliminary Results"). *)
let router_elements () =
  [
    Click.Registry.make ~name:"cl" ~cls:"Classifier" ~config:[ "12/0800"; "-" ];
    Click.Registry.make ~name:"strip" ~cls:"Strip" ~config:[ "14" ];
    Click.Registry.make ~name:"chk" ~cls:"CheckIPHeader" ~config:[];
    Click.Registry.make ~name:"opts" ~cls:"IPGWOptions" ~config:[ "9.9.9.1" ];
    Click.Registry.make ~name:"ttl" ~cls:"DecIPTTL" ~config:[];
    Click.Registry.make ~name:"rt" ~cls:"StaticIPLookup"
      ~config:[ "10.0.0.0/8 0"; "192.168.0.0/16 1"; "0.0.0.0/0 2" ];
    Click.Registry.make ~name:"out" ~cls:"EtherEncap"
      ~config:[ "2048"; "02:00:00:00:00:01"; "02:00:00:00:00:02" ];
  ]

(* Chain the first [k] router elements through port 0; extra output
   ports (bad headers, expired TTLs, non-IP traffic) fall off the
   pipeline as egress points, like ToDevice/Discard sinks would. *)
let router_prefix k =
  let elements =
    List.filteri (fun i _ -> i < k) (router_elements ())
  in
  Click.Pipeline.linear elements

let full_router () = router_prefix 7

(* {1 FIG1 — the toy program's execution tree} *)

let fig1 () =
  section "FIG1: toy program execution tree (paper Fig. 1)";
  let prog = Click.El_toy.fig1 () in
  let r = E.explore prog in
  Printf.printf "program: assert in >= 0; out <- max(in, 10)\n";
  Printf.printf "feasible paths under unconstrained input:\n";
  List.iteri
    (fun i (seg : E.segment) ->
      let verdict =
        match Solver.check seg.E.cond with
        | Solver.Sat m ->
          let b = Vdp_smt.Model.bv m (S.byte_var 0) ~width:8 in
          Printf.sprintf "feasible, e.g. in = %d (signed %s)"
            (B.to_int_trunc b)
            (if B.msb b then "negative" else "non-negative")
        | Solver.Unsat -> "infeasible"
        | Solver.Unknown -> "unknown"
      in
      Format.printf "  p%d: %a, %d instrs — %s@." (i + 1) E.pp_outcome
        seg.E.outcome seg.E.instr_hi verdict)
    r.E.segments;
  Printf.printf
    "the crash path is exactly the paper's in < 0 branch: the verifier\n\
     reports every input value that prevents the proof.\n"

(* {1 FIG2 — pipeline decomposition on the toy pipeline} *)

let fig2 () =
  section "FIG2: toy pipeline E1 -> E2 (paper Fig. 2)";
  Summaries.clear ();
  (* Step 1: per-element segments. *)
  let e1 = Click.El_toy.e1_element () in
  let e2 = Click.El_toy.e2_element () in
  List.iter
    (fun (name, (el : Click.Element.t)) ->
      let entry = Summaries.summarize el in
      Printf.printf "step 1: %s has %d segments, %d suspect\n" name
        (List.length entry.Summaries.result.E.segments)
        (List.length
           (List.filter Summaries.is_suspect_crash
              entry.Summaries.result.E.segments)))
    [ ("E1", e1); ("E2", e2) ];
  (* Step 2: compose. *)
  let pl = Click.El_toy.fig2_pipeline () in
  let r, dt = time (fun () -> V.check_crash_freedom pl) in
  Format.printf
    "step 2: stitched suspect paths through the pipeline: %d checks, %d \
     refuted@."
    r.V.stats.V.suspect_checks r.V.stats.V.refuted;
  Format.printf "verdict: %a (%.3fs)@." Vdp_verif.Report.pp_verdict
    r.V.verdict dt;
  Printf.printf
    "E2's crashing segment e3 (in < 0) is infeasible behind E1, exactly\n\
     the <e1, e3> / <e2, e3> stitching argument of the paper.\n"

(* {1 E1 — crash freedom of the Click IP-router pipelines} *)

let e1 () =
  section "E1: crash freedom for pipelines of Click IP-router elements";
  Summaries.clear ();
  Printf.printf "%-46s %8s %8s %8s %s\n" "pipeline" "suspects" "checks"
    "time(s)" "verdict";
  let rows = ref [] in
  for k = 1 to 7 do
    let pl = router_prefix k in
    let names =
      String.concat "->"
        (List.map
           (fun (n : Click.Pipeline.node) ->
             n.Click.Pipeline.element.Click.Element.name)
           (Array.to_list (Click.Pipeline.nodes pl)))
    in
    let r, dt = time (fun () -> V.check_crash_freedom pl) in
    Format.printf "%-46s %8d %8d %8.2f %a@." names r.V.stats.V.suspects
      r.V.stats.V.suspect_checks dt Vdp_verif.Report.pp_verdict r.V.verdict;
    rows :=
      Json.Obj
        [
          ("k", Json.Int k);
          ("suspects", Json.Int r.V.stats.V.suspects);
          ("checks", Json.Int r.V.stats.V.suspect_checks);
          ("composite_paths", Json.Int r.V.stats.V.composite_paths);
          ("seconds", Json.Float dt);
          ("verdict", Json.Str (verdict_str r.V.verdict));
        ]
      :: !rows
  done;
  record "pipelines" (Json.List (List.rev !rows));
  (* A rewired variant (order changed downstream of CheckIPHeader) to
     back the "any pipeline of these elements" claim. *)
  let reordered =
    Click.Pipeline.linear
      [
        Click.Registry.make ~name:"cl" ~cls:"Classifier" ~config:[ "12/0800" ];
        Click.Registry.make ~name:"strip" ~cls:"Strip" ~config:[ "14" ];
        Click.Registry.make ~name:"chk" ~cls:"CheckIPHeader" ~config:[];
        Click.Registry.make ~name:"ttl" ~cls:"DecIPTTL" ~config:[];
        Click.Registry.make ~name:"opts" ~cls:"IPGWOptions" ~config:[ "9.9.9.1" ];
        Click.Registry.make ~name:"rt" ~cls:"StaticIPLookup"
          ~config:[ "0.0.0.0/0 0" ];
        Click.Registry.make ~name:"out" ~cls:"EtherEncap"
          ~config:[ "2048"; "02:00:00:00:00:01"; "02:00:00:00:00:02" ];
      ]
  in
  let r, dt = time (fun () -> V.check_crash_freedom reordered) in
  Format.printf "%-46s %8d %8d %8.2f %a@." "reordered (ttl before opts)"
    r.V.stats.V.suspects r.V.stats.V.suspect_checks dt
    Vdp_verif.Report.pp_verdict r.V.verdict;
  record "reordered"
    (Json.Obj
       [
         ("suspects", Json.Int r.V.stats.V.suspects);
         ("checks", Json.Int r.V.stats.V.suspect_checks);
         ("seconds", Json.Float dt);
         ("verdict", Json.Str (verdict_str r.V.verdict));
       ])

(* {1 E2 — instruction bound of the longest pipeline} *)

let e2 () =
  section "E2: per-packet instruction bound (paper: ~3600 for the longest pipeline)";
  Summaries.clear ();
  let pl = full_router () in
  let r, dt = time (fun () -> V.instruction_bound pl) in
  (match r.V.bound with
  | Some b ->
    Printf.printf
      "bound: <= %d instructions per packet (%s), found in %.2fs\n" b
      (if r.V.exact then "exact" else "upper bound incl. loop-summary slack")
      dt
  | None -> Printf.printf "no bound found\n");
  (match (r.V.witness, r.V.measured) with
  | Some pkt, Some m ->
    Printf.printf
      "witness: a %d-byte frame; the runtime spends %d instructions on it\n"
      (P.length pkt) m;
    let q = P.clone pkt in
    if P.length q >= 15 then begin
      P.pull q 14;
      Printf.printf
        "witness parses as IPv4: version/ihl byte 0x%02x (options present: %b)\n"
        (P.get_u8 q 0)
        (P.get_u8 q 0 land 0x0f > 5)
    end
  | _ -> ());
  (* Stress the runtime with option-heavy frames and report the
     concrete maximum for comparison with the proved bound. *)
  let inst = Click.Runtime.instantiate pl in
  let st = Random.State.make [| 11 |] in
  let max_seen = ref 0 in
  for _ = 1 to 20_000 do
    let f = Gen.random_flow st in
    let pkt =
      if Random.State.int st 3 = 0 then begin
        let nops = Random.State.int st 36 in
        let options =
          String.make nops '\x01' ^ "\x07\x07\x04\x00\x00\x00\x00"
        in
        let options = String.sub options 0 (min 40 (String.length options)) in
        Gen.frame_with_options ~options f
      end
      else Gen.corrupt st (Gen.frame_of_flow f)
    in
    let run = Click.Runtime.push inst pkt in
    max_seen := max !max_seen run.Click.Runtime.total_instrs
  done;
  (match r.V.bound with
  | Some b ->
    Printf.printf
      "fuzzing 20k frames: concrete max %d <= proved bound %d: %b\n"
      !max_seen b (!max_seen <= b)
  | None -> ());
  record "bound"
    (match r.V.bound with Some b -> Json.Int b | None -> Json.Str "none");
  record "exact" (Json.Bool r.V.exact);
  record "witness_measured"
    (match r.V.measured with Some m -> Json.Int m | None -> Json.Str "none");
  record "fuzz_max" (Json.Int !max_seen);
  record "seconds_bound" (Json.Float dt)

(* {1 E3 — compositional vs monolithic verification time} *)

let e3 () =
  section
    "E3: verification time, pipeline decomposition vs monolithic symbex\n\
     (paper: ~18 minutes vs did-not-finish within 12 hours)";
  Printf.printf "%-4s %14s %14s %20s\n" "k" "compositional" "monolithic"
    "monolithic paths";
  let mono_budget = 30_000 in
  let time_limit = 30. in
  let rows = ref [] in
  for k = 1 to 7 do
    let pl = router_prefix k in
    Summaries.clear ();
    let rc, dtc = time (fun () -> V.check_crash_freedom pl) in
    let comp =
      match rc.V.verdict with
      | V.Proved -> Printf.sprintf "%.2fs" dtc
      | V.Violated _ -> Printf.sprintf "%.2fs (viol!)" dtc
      | V.Unknown _ -> Printf.sprintf "%.2fs (unk)" dtc
    in
    let engine_config =
      { Mono.default_engine_config with E.max_paths = mono_budget }
    in
    let mono, mono_paths =
      match Mono.check_crash_freedom ~engine_config ~time_limit pl with
      | Mono.Completed { verdict = `Proved; paths; time } ->
        (Printf.sprintf "%.2fs" time, string_of_int paths)
      | Mono.Completed { verdict = `Violated n; paths; time } ->
        (Printf.sprintf "%.2fs (%d viol)" time n, string_of_int paths)
      | Mono.Did_not_finish { paths_explored; time } ->
        ( Printf.sprintf "DNF@%.0fs" time,
          Printf.sprintf ">= %d (budget %d)" paths_explored mono_budget )
    in
    Printf.printf "%-4d %14s %14s %20s\n%!" k comp mono mono_paths;
    rows :=
      Json.Obj
        [
          ("k", Json.Int k);
          ("compositional_seconds", Json.Float dtc);
          ("compositional_verdict", Json.Str (verdict_str rc.V.verdict));
          ("monolithic", Json.Str mono);
          ("monolithic_paths", Json.Str mono_paths);
        ]
      :: !rows
  done;
  record "pipelines" (Json.List (List.rev !rows));
  Printf.printf
    "\nshape check: compositional stays flat in k (summaries cached, only\n\
     suspects re-checked); the monolithic baseline multiplies paths per\n\
     element and stops finishing once the IP-options loop joins (k >= 4).\n"

(* {1 E4 — path-count analysis: k * 2^n vs 2^(k*n)} *)

let e4 () =
  section "E4: explored paths, per-element sum vs whole-pipeline product";
  Printf.printf "%-4s %18s %22s %22s\n" "k" "sum segments" "product (theory)"
    "monolithic explored";
  for k = 1 to 7 do
    let pl = router_prefix k in
    Summaries.clear ();
    let summaries = Summaries.of_pipeline pl in
    let per_element =
      Array.map
        (fun (e : Summaries.entry) ->
          List.length e.Summaries.result.E.segments)
        summaries
    in
    let sum = Array.fold_left ( + ) 0 per_element in
    let product =
      Array.fold_left (fun acc n -> acc *. float_of_int (max 1 n)) 1. per_element
    in
    let engine_config =
      { Mono.default_engine_config with E.max_paths = 20_000 }
    in
    let mono =
      match Mono.check_crash_freedom ~engine_config ~time_limit:20. pl with
      | Mono.Completed { paths; _ } -> string_of_int paths
      | Mono.Did_not_finish { paths_explored; _ } ->
        Printf.sprintf ">= %d" paths_explored
    in
    Printf.printf "%-4d %18d %22.3g %22s\n%!" k sum product mono
  done;
  Printf.printf
    "\nthe sum column is the k*2^n work Step 1 actually does; the product\n\
     column is the 2^(k*n) path space a monolithic verifier faces.\n"

(* {1 E5 — stateful elements (NetFlow / NAT)} *)

let e5 () =
  section "E5: stateful pipelines (NetFlow-style counter, NAT rewriter)";
  Summaries.clear ();
  let config =
    {|
    cl :: Classifier(12/0800, -);
    strip :: Strip(14);
    chk :: CheckIPHeader;
    flow :: FlowCounter;
    nat :: IPRewriter(203.0.113.7);
    cks :: SetIPChecksum;
    out :: EtherEncap(2048, 02:00:00:00:00:01, 02:00:00:00:00:02);
    cl[0] -> strip -> chk -> flow -> nat -> cks -> out;
    cl[1] -> Discard; chk[1] -> Discard; nat[1] -> cks;
    |}
  in
  let pl = Click.Config.parse config in
  let r, dt = time (fun () -> V.check_crash_freedom pl) in
  Format.printf "NetFlow+NAT pipeline: %a in %.2fs (%d suspects, %d checks)@."
    Vdp_verif.Report.pp_verdict r.V.verdict dt r.V.stats.V.suspects
    r.V.stats.V.suspect_checks;
  (* The broken stateful elements are caught. *)
  List.iter
    (fun (cls, cfg) ->
      Summaries.clear ();
      let pl =
        Click.Pipeline.linear
          [
            Click.Registry.make ~name:"cl" ~cls:"Classifier"
              ~config:[ "12/0800" ];
            Click.Registry.make ~name:"strip" ~cls:"Strip" ~config:[ "14" ];
            Click.Registry.make ~name:"chk" ~cls:"CheckIPHeader" ~config:[];
            Click.Registry.make ~name:"x" ~cls ~config:cfg;
          ]
      in
      let r, dt = time (fun () -> V.check_crash_freedom pl) in
      match r.V.verdict with
      | V.Violated vs ->
        let v = List.hd vs in
        Printf.printf
          "%s: REJECTED in %.2fs — %s%s\n" cls dt
          (Vdp_verif.Report.to_string
             (fun fmt v -> E.pp_outcome fmt v.V.outcome)
             v)
          (if v.V.stateful then " (needs a particular state history)" else "")
      | V.Proved -> Printf.printf "%s: unexpectedly proved safe\n" cls
      | V.Unknown why -> Printf.printf "%s: unknown (%s)\n" cls why)
    [ ("BuggyCounter", []); ("BuggyNAT", [ "198.51.100.1" ]) ];
  (* Write-back provenance: the counter's bad value is producible. *)
  let summary = E.explore (Click.El_market.buggy_counter ()) in
  let crash =
    List.find
      (fun s ->
        match s.E.outcome with E.O_crash (E.C_assert _) -> true | _ -> false)
      summary.E.segments
  in
  let read_var =
    List.find_map
      (function S.Kv_read { value; _ } -> Some value | _ -> None)
      crash.E.kv_log
    |> Option.get
  in
  (match
     Vdp_verif.Kvmodel.check_provenance ~summary ~store:"c8"
       ~default:(B.zero 8) ~read_var crash.E.cond
   with
  | Vdp_verif.Kvmodel.Written w ->
    Printf.printf "write-back check: bad value is producible via %s\n" w
  | _ -> Printf.printf "write-back check: unexpected result\n")

(* {1 Shared by later experiments} *)

(* The NetFlow+NAT configuration of E5, run by E7 onwards. *)
let nat_config =
  {|
    cl :: Classifier(12/0800, -);
    strip :: Strip(14);
    chk :: CheckIPHeader;
    flow :: FlowCounter;
    nat :: IPRewriter(203.0.113.7);
    cks :: SetIPChecksum;
    out :: EtherEncap(2048, 02:00:00:00:00:01, 02:00:00:00:00:02);
    cl[0] -> strip -> chk -> flow -> nat -> cks -> out;
    cl[1] -> Discard; chk[1] -> Discard; nat[1] -> cks;
    |}

let violated_nodes = function
  | V.Violated vs -> List.sort_uniq compare (List.map (fun v -> v.V.node) vs)
  | V.Proved | V.Unknown _ -> []

let same_verdict a b =
  match (a, b) with
  | V.Proved, V.Proved -> true
  | V.Violated _, V.Violated _ -> violated_nodes a = violated_nodes b
  | V.Unknown _, V.Unknown _ -> true
  | _ -> false

(* Pull one float field back out of a previously written BENCH json;
   enough of a parser for the regression check against the committed
   baseline (flat file, field written by [Json.write]). *)
let json_float_field path key =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    let pat = Printf.sprintf "\"%s\":" key in
    let plen = String.length pat in
    let rec find i =
      if i + plen > String.length s then None
      else if String.sub s i plen = pat then Some (i + plen)
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some start ->
      let stop = ref start in
      while
        !stop < String.length s
        && (match s.[!stop] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr stop
      done;
      float_of_string_opt (String.sub s start (!stop - start))
  end

(* {1 E7 — domain-parallel verification scaling} *)

let e7 () =
  section
    "E7: parallel scaling, 1/2/4/8 domains (Step-1 symbex fan-out +\n\
     Step-2 work-stealing task scheduler)";
  let smoke = Sys.getenv_opt "VDP_E7_SMOKE" <> None in
  (* Smoke mode (CI): the router pipeline at -j 2 only — a fast
     sequential-vs-parallel verdict differential through the
     work-stealing scheduler on every commit; the full jobs sweep and
     its gates run in full mode. *)
  let pipelines =
    [ ("ip-router (7 elements)", full_router ()) ]
    @
    if smoke then [] else [ ("NetFlow+NAT", Click.Config.parse nat_config) ]
  in
  let jobs_list = if smoke then [ 2 ] else [ 2; 4; 8 ] in
  (* End-to-end verification (crash freedom + instruction bound) from a
     cold start: summaries and the shared query cache are cleared before
     every run so Step 1 is re-done and timed too. *)
  let run ~jobs pl =
    Summaries.clear ();
    Solver.Cache.clear Solver.shared_cache;
    Gc.compact ();
    let config = { V.default_config with V.jobs } in
    time (fun () ->
        let crash = V.check_crash_freedom ~config pl in
        let bound = V.instruction_bound ~config pl in
        (crash, bound))
  in
  Printf.printf "%-24s %-18s %6s %10s %8s %s\n" "pipeline" "mode" "jobs"
    "time(s)" "speedup" "agreement";
  let rows = ref [] in
  let worst_ratio = ref 0. in
  List.iter
    (fun (name, pl) ->
      (* Warm up untimed: hash-consed terms are interned for good, so a
         pipeline's first verification majors-GC over a growing live set
         and every later one over the full set (~2x wall). All timed
         runs below must sit on the same side of that cliff or the
         jobs/mode comparison measures GC, not the scheduler. *)
      ignore (run ~jobs:1 pl);
      let (rc0, rb0), base_t = run ~jobs:1 pl in
      let report ?sched mode jobs (rc, rb) dt =
        let agree =
          same_verdict rc0.V.verdict rc.V.verdict
          && rb0.V.bound = rb.V.bound
          && rb0.V.exact = rb.V.exact
        in
        Printf.printf "%-24s %-18s %6d %10.3f %7.2fx %s\n%!" name mode jobs
          dt (base_t /. dt)
          (if agree then "ok" else "MISMATCH");
        if not agree then begin
          Printf.printf
            "E7 FAILED: %s -j %d verdict/bound differs from sequential\n"
            name jobs;
          exit_code := 1
        end;
        let sched_fields =
          match sched with
          | None -> []
          | Some (spawned, stolen, per_suspect) ->
            [
              ("tasks_spawned", Json.Int spawned);
              ("tasks_stolen", Json.Int stolen);
              ("tasks_per_suspect", Json.Float per_suspect);
            ]
        in
        rows :=
          Json.Obj
            ([
               ("pipeline", Json.Str name);
               ("mode", Json.Str mode);
               ("jobs", Json.Int jobs);
               ("seconds", Json.Float dt);
               ("speedup_vs_incremental_j1", Json.Float (base_t /. dt));
               ("crash_verdict", Json.Str (verdict_str rc.V.verdict));
               ( "bound",
                 match rb.V.bound with
                 | Some b -> Json.Int b
                 | None -> Json.Str "none" );
               ("composite_paths", Json.Int rc.V.stats.V.composite_paths);
               ("agree", Json.Bool agree);
             ]
            @ sched_fields)
          :: !rows;
        dt
      in
      ignore (report "incremental" 1 (rc0, rb0) base_t);
      List.iter
        (fun jobs ->
          let g = Solver.stats in
          let sp0 = g.Solver.sched_spawned
          and stl0 = g.Solver.sched_stolen in
          let ((rc, rb) as r), dt = run ~jobs pl in
          let spawned = g.Solver.sched_spawned - sp0 in
          let stolen = g.Solver.sched_stolen - stl0 in
          let suspects =
            rc.V.stats.V.suspect_checks + rb.V.b_stats.V.suspect_checks
          in
          let per_suspect =
            if suspects > 0 then float_of_int spawned /. float_of_int suspects
            else 0.
          in
          let dt =
            report ~sched:(spawned, stolen, per_suspect) "incremental+par"
              jobs r dt
          in
          if jobs = 4 then begin
            worst_ratio := max !worst_ratio (dt /. base_t);
            record
              (Printf.sprintf "speedup_at_4_domains (%s)" name)
              (Json.Float (base_t /. dt));
            record
              (Printf.sprintf "tasks_per_suspect_at_4_domains (%s)" name)
              (Json.Float per_suspect);
            (* Gate 1: fine-grained units — more scheduler tasks than
               suspect-path checks (each check is a task and interior
               tree nodes spawn their own). *)
            if per_suspect <= 1.0 then begin
              Printf.printf
                "E7 FAILED: %.2f scheduler tasks per suspect check on %s \
                 (want > 1)\n"
                per_suspect name;
              exit_code := 1
            end;
            (* Gate 2: bounded coordination overhead — on a single-core
               host -j 4 measures pure scheduler+GC overhead, and must
               stay within 10%% of the sequential run. *)
            if dt > 1.10 *. base_t then begin
              Printf.printf
                "E7 FAILED: -j 4 took %.2fs, more than 10%% over -j 1 \
                 (%.2fs) on %s\n"
                dt base_t name;
              exit_code := 1
            end
          end)
        jobs_list)
    pipelines;
  record "runs" (Json.List (List.rev !rows));
  record "available_cores" (Json.Int (Domain.recommended_domain_count ()));
  record "smoke" (Json.Bool smoke);
  if not smoke then record "worst_j4_over_j1" (Json.Float !worst_ratio);
  (if not smoke then
     match json_float_field "BENCH_e7_baseline.json" "worst_j4_over_j1" with
     | Some baseline ->
       let worst = !worst_ratio in
       let floor = max baseline 0.05 in
       let regressed = worst > 2. *. floor in
       record "baseline_worst_j4_over_j1" (Json.Float baseline);
       record "regressed" (Json.Bool regressed);
       if regressed then begin
         Printf.printf
           "E7 FAILED: worst -j4/-j1 ratio %.2f is more than 2x the \
            baseline %.2f\n"
           worst baseline;
         exit_code := 1
       end
       else
         Printf.printf "no regression vs baseline (%.2f <= 2x %.2f)\n" worst
           floor
     | None -> Printf.printf "no BENCH_e7_baseline.json; skipping regression check\n");
  Printf.printf
    "\nnote: speedup is bounded by the machine's core count\n\
     (Domain.recommended_domain_count = %d here); on a single-core host\n\
     the parallel runs measure coordination overhead, not speedup.\n"
    (Domain.recommended_domain_count ())

(* {1 E8 — witness replay and the differential oracle} *)

let e8 () =
  section
    "E8: witness replay + differential fuzzing (summaries vs concrete \
     runtime)";
  let module W = Vdp_verif.Witness in
  Summaries.clear ();
  let seed = 7 and count = 500 in
  (* Part 1: the differential oracle on the safe pipelines — every random
     packet must take the same path, touch the same state and spend an
     instruction count inside the summarized interval on both sides. *)
  let pipelines =
    [
      ("ip-router (7 elements)", full_router ());
      ("NetFlow+NAT", Click.Config.parse nat_config);
    ]
    @ List.filter_map
        (fun path ->
          if Sys.file_exists path then
            Some (path, Click.Config.parse_file path)
          else None)
        [ "examples/router.click"; "examples/firewall.click" ]
  in
  Printf.printf "%-28s %8s %8s %8s %10s %9s\n" "pipeline" "packets" "hops"
    "approx" "disagree" "time(s)";
  let rows = ref [] in
  let failed = ref false in
  let run_one name r dt =
    let nfail = List.length r.W.f_failures in
    if nfail > 0 then failed := true;
    Printf.printf "%-28s %8d %8d %8d %10d %9.2f\n%!" name r.W.f_packets
      r.W.f_hops r.W.f_approx nfail dt;
    List.iter
      (fun (i, m) -> Printf.printf "    packet %d: %s\n" i m)
      r.W.f_failures;
    rows :=
      Json.Obj
        [
          ("pipeline", Json.Str name);
          ("packets", Json.Int r.W.f_packets);
          ("hops", Json.Int r.W.f_hops);
          ("approx_hops", Json.Int r.W.f_approx);
          ("disagreements", Json.Int nfail);
          ("seconds", Json.Float dt);
        ]
      :: !rows
  in
  List.iter
    (fun (name, pl) ->
      let r, dt = time (fun () -> W.differential ~seed ~count pl) in
      run_one name r dt)
    pipelines;
  (* The same workload with Step 1 fanned out over 4 domains must agree
     byte for byte with the sequential run. *)
  let rpar, dtp =
    time (fun () ->
        Vdp_verif.Pool.with_pool 4 (fun pool ->
            W.differential ~pool ~seed ~count (full_router ())))
  in
  run_one "ip-router (j=4)" rpar dtp;
  record "differential" (Json.List (List.rev !rows));
  record "seed" (Json.Int seed);
  (* Part 2: replay confirmation — every violation the verifier reports
     on the buggy pipelines must reproduce on the concrete runtime, from
     the witness packet plus the recovered initial private state. *)
  let guard cls config =
    Click.Pipeline.linear
      [
        Click.Registry.make ~name:"cl" ~cls:"Classifier" ~config:[ "12/0800" ];
        Click.Registry.make ~name:"strip" ~cls:"Strip" ~config:[ "14" ];
        Click.Registry.make ~name:"chk" ~cls:"CheckIPHeader" ~config:[];
        Click.Registry.make ~name:"x" ~cls ~config;
      ]
  in
  let buggy =
    [
      ("toy e2 (assert crash)", Click.El_toy.e2_pipeline ());
      ("BuggyCounter", guard "BuggyCounter" []);
      ("BuggyQuota(1000)", guard "BuggyQuota" [ "1000" ]);
      ("BuggyNAT", guard "BuggyNAT" [ "198.51.100.1" ]);
    ]
  in
  Printf.printf "\n%-24s %10s %10s %10s\n" "buggy pipeline" "violations"
    "replays" "confirmed";
  let vrows = ref [] in
  let total_replays = ref 0 and total_confirmed = ref 0 in
  List.iter
    (fun (name, pl) ->
      Summaries.clear ();
      let r = V.check_crash_freedom pl in
      let vs = match r.V.verdict with V.Violated vs -> vs | _ -> [] in
      let confirmed = List.filter (fun v -> v.V.confirmed) vs in
      total_replays := !total_replays + r.V.stats.V.replays;
      total_confirmed := !total_confirmed + r.V.stats.V.replays_confirmed;
      if vs = [] || List.length confirmed < List.length vs then begin
        failed := true;
        List.iter
          (fun (v : V.violation) ->
            if not v.V.confirmed then
              Printf.printf "    UNCONFIRMED at node %d: %s\n" v.V.node
                (match v.V.replayed with
                | Some { W.status = W.Unconfirmed why; _ } -> why
                | _ -> "no replay attempted"))
          vs
      end;
      Printf.printf "%-24s %10d %10d %10d\n%!" name (List.length vs)
        r.V.stats.V.replays (List.length confirmed);
      vrows :=
        Json.Obj
          [
            ("pipeline", Json.Str name);
            ("violations", Json.Int (List.length vs));
            ("replays", Json.Int r.V.stats.V.replays);
            ("confirmed", Json.Int (List.length confirmed));
          ]
        :: !vrows)
    buggy;
  record "violations" (Json.List (List.rev !vrows));
  record "replays" (Json.Int !total_replays);
  record "replays_confirmed" (Json.Int !total_confirmed);
  record "confirm_rate"
    (Json.Float
       (if !total_replays = 0 then 0.
        else float_of_int !total_confirmed /. float_of_int !total_replays));
  record "pass" (Json.Bool (not !failed));
  if !failed then begin
    Printf.printf "\nE8 FAILED: disagreement or unconfirmed violation above\n";
    exit_code := 1
  end
  else
    Printf.printf
      "\nevery random packet agreed on both sides and every reported\n\
       violation reproduced concretely (confirm rate %d/%d).\n"
      !total_confirmed !total_replays

(* {1 E9 — word-level preprocessing + gate-level sharing} *)

let e9 () =
  section
    "E9: word-level preprocessing + gate-level sharing on Step-2-shaped \
     queries";
  let smoke = Sys.getenv_opt "VDP_E9_SMOKE" <> None in
  let iters = if smoke then 10 else 50 in
  (* Each query is shaped like a composite Step-2 condition: definition
     equalities that substitution should eliminate, a conjunct over a
     variable nothing else mentions, an all-defaults-satisfiable
     independent component, and subtraction/comparison cones over the
     same operands so the bit-blaster's structural gate cache gets
     exercised within a single blast. *)
  let v16 n = T.var ("e9" ^ n) 16 in
  let c16 = T.bv_int ~width:16 in
  let c8 = T.bv_int ~width:8 in
  let a = v16 "a" and b = v16 "b" and c = v16 "c" and d = v16 "d" in
  let k = v16 "k" and k2 = v16 "k2" in
  let x = v16 "x" and y = v16 "y" in
  let p0 = T.var "e9p0" 8 in
  let queries =
    [
      ( "def-elim + shared sub/cmp cone",
        [
          T.eq k (T.sub a b);
          T.ule k c;
          T.ule b a;
          T.ult c (c16 0x4000);
          (* nonzero anchor: keeps the component off the all-defaults
             slice so both modes actually reach the SAT core *)
          T.ule (c16 1) b;
        ] );
      ( "byte pin + constant propagation",
        [
          T.eq p0 (c8 0x45);
          T.eq k (T.add (T.zext 16 p0) c);
          T.ult k (c16 0x8000);
          T.eq k2 (T.sub a b);
          T.ule k2 c;
          T.ule b a;
          T.ule (c16 1) b;
        ] );
      ( "unconstrained-variable drop",
        [
          T.ule d (c16 100);
          T.eq k (T.sub a b);
          T.ult k c;
          T.ule b a;
          T.ule (c16 1) b;
        ] );
      ( "ite under negated condition",
        [
          T.eq k (T.ite (T.ult a b) c d);
          T.eq k2 (T.ite (T.ule b a) d c);
          T.ule k k2;
          T.eq (T.band k (c16 0xff)) (c16 0x2a);
        ] );
      ( "transitivity refuted by SAT",
        [
          T.eq k (T.add a b);
          T.ule k c;
          T.ule c d;
          T.ult d k;
          T.eq k2 (T.sub a b);
          T.ule k2 (c16 0xfff0);
          T.ule b a;
        ] );
      ( "independent sliceable component",
        [
          T.ule x y;
          T.eq k (T.sub a b);
          T.ule k c;
          T.ule b a;
          T.ule (c16 1) b;
        ] );
    ]
  in
  let run_query ~preprocess terms =
    Solver.reset_stats ();
    let verdict = ref "?" in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      verdict :=
        match Solver.check ~preprocess terms with
        | Solver.Sat _ -> "sat"
        | Solver.Unsat -> "unsat"
        | Solver.Unknown -> "unknown"
    done;
    let dt = (Unix.gettimeofday () -. t0) /. float_of_int iters in
    let s = Solver.stats in
    ( !verdict,
      dt,
      s.Solver.sat_vars / iters,
      s.Solver.sat_clauses / iters,
      s.Solver.gate_hits / iters,
      (s.Solver.gate_hits + s.Solver.gate_misses) / iters,
      (s.Solver.eliminated_conjuncts + s.Solver.sliced_conjuncts) / iters )
  in
  Printf.printf "%-34s %7s  %12s %14s %10s %9s\n" "query" "verdict"
    "vars off/on" "clauses off/on" "gate hits" "elim";
  let rows = ref [] in
  let queries_ok = ref true in
  let total_hits = ref 0 in
  let total_on = ref 0. and total_off = ref 0. in
  List.iter
    (fun (name, terms) ->
      let voff, toff, vars_off, cls_off, _, _, _ =
        run_query ~preprocess:false terms
      in
      let von, ton, vars_on, cls_on, hits_on, gates_on, elim_on =
        run_query ~preprocess:true terms
      in
      total_on := !total_on +. ton;
      total_off := !total_off +. toff;
      total_hits := !total_hits + hits_on;
      let agree = voff = von in
      let reduced = vars_on < vars_off && cls_on < cls_off in
      if not (agree && reduced) then queries_ok := false;
      Printf.printf "%-34s %7s  %5d/%-6d %7d/%-6d %6d/%-3d %6d %s\n%!" name
        von vars_off vars_on cls_off cls_on hits_on gates_on elim_on
        ((if agree then "" else " VERDICT-MISMATCH")
        ^ if reduced then "" else " NOT-REDUCED");
      rows :=
        Json.Obj
          [
            ("query", Json.Str name);
            ("verdict", Json.Str von);
            ("agree", Json.Bool agree);
            ("sat_vars_off", Json.Int vars_off);
            ("sat_vars_on", Json.Int vars_on);
            ("sat_clauses_off", Json.Int cls_off);
            ("sat_clauses_on", Json.Int cls_on);
            ("gate_hits_on", Json.Int hits_on);
            ("gates_on", Json.Int gates_on);
            ("conjuncts_eliminated", Json.Int elim_on);
            ("seconds_off", Json.Float toff);
            ("seconds_on", Json.Float ton);
            ("strictly_reduced", Json.Bool reduced);
          ]
        :: !rows)
    queries;
  record "queries" (Json.List (List.rev !rows));
  record "iterations" (Json.Int iters);
  record "per_query_seconds_preprocessed" (Json.Float !total_on);
  record "per_query_seconds_raw" (Json.Float !total_off);
  let gate_sharing_ok = !total_hits > 0 in
  Printf.printf
    "\npreprocessed totals: %.4fs vs %.4fs raw per pass; %d gate-cache \
     hits\n"
    !total_on !total_off !total_hits;
  if not !queries_ok then begin
    Printf.printf
      "E9 FAILED: a query disagreed or was not strictly reduced\n";
    exit_code := 1
  end;
  if not gate_sharing_ok then begin
    Printf.printf "E9 FAILED: the structural gate cache never hit\n";
    exit_code := 1
  end;
  (* End-to-end differential: both example pipelines, full crash +
     bound verification, preprocessing on vs off, must agree. *)
  let examples =
    List.filter Sys.file_exists
      [ "examples/router.click"; "examples/firewall.click" ]
  in
  let erows = ref [] in
  List.iter
    (fun path ->
      let pl = Click.Config.parse_file path in
      (* The instruction bound enumerates far more composite paths than
         crash freedom; on the segment-heavy firewall (IPFilter) that
         search is impractical in either mode, so the bound leg of the
         differential runs on the router only. *)
      let with_bound = path = "examples/router.click" in
      let run ~preprocess =
        Summaries.clear ();
        Solver.Cache.clear Solver.shared_cache;
        let config = { V.default_config with V.preprocess } in
        let crash = V.check_crash_freedom ~config pl in
        let bound =
          if with_bound then Some (V.instruction_bound ~config pl) else None
        in
        (crash, bound)
      in
      let (c1, b1), dt1 = time (fun () -> run ~preprocess:true) in
      let (c0, b0), dt0 = time (fun () -> run ~preprocess:false) in
      let bound r = Option.bind r (fun (b : V.bound_report) -> b.V.bound) in
      let agree =
        same_verdict c1.V.verdict c0.V.verdict
        && bound b1 = bound b0
        && Option.map (fun (b : V.bound_report) -> b.V.exact) b1
           = Option.map (fun (b : V.bound_report) -> b.V.exact) b0
      in
      Printf.printf
        "%-28s preprocess on %.2fs / off %.2fs: %s (%s, bound %s)\n%!" path
        dt1 dt0
        (if agree then "identical verdicts+bounds" else "MISMATCH")
        (verdict_str c1.V.verdict)
        (match bound b1 with
        | Some b -> string_of_int b
        | None -> if with_bound then "none" else "skipped");
      if not agree then begin
        Printf.printf "E9 FAILED: end-to-end divergence on %s\n" path;
        exit_code := 1
      end;
      erows :=
        Json.Obj
          [
            ("pipeline", Json.Str path);
            ("agree", Json.Bool agree);
            ("crash_verdict", Json.Str (verdict_str c1.V.verdict));
            ( "bound",
              match bound b1 with
              | Some b -> Json.Int b
              | None -> Json.Str (if with_bound then "none" else "skipped") );
            ("seconds_preprocessed", Json.Float dt1);
            ("seconds_raw", Json.Float dt0);
          ]
        :: !erows)
    examples;
  record "end_to_end" (Json.List (List.rev !erows));
  (* Regression check against the committed baseline: the per-pass
     query total is iteration-normalized, so smoke runs compare on the
     same scale as full runs. *)
  (match
     json_float_field "BENCH_e9_baseline.json" "per_query_seconds_preprocessed"
   with
  | Some baseline ->
    let floor = max baseline 0.001 in
    let regressed = !total_on > 2. *. floor in
    record "baseline_seconds" (Json.Float baseline);
    record "regressed" (Json.Bool regressed);
    if regressed then begin
      Printf.printf
        "E9 FAILED: query total %.4fs is more than 2x the baseline %.4fs\n"
        !total_on baseline;
      exit_code := 1
    end
    else
      Printf.printf "no regression vs baseline (%.4fs <= 2x %.4fs)\n"
        !total_on floor
  | None ->
    Printf.printf "no BENCH_e9_baseline.json; skipping regression check\n")

(* {1 E10 — proof-certificate coverage and overhead} *)

let e10 () =
  section "E10: proof-certificate coverage and overhead";
  let module C = Vdp_cert.Certificate in
  let smoke = Sys.getenv_opt "VDP_E10_SMOKE" <> None in
  (* Verify each pipeline twice — certification off, then on — and
     require (a) identical verdicts/bounds, (b) every refutation behind
     the certified run independently validated. The instruction bound
     runs on the router only (see E9: the firewall's segment count makes
     it impractical in either mode). The regression gate is computed
     over the two fast pipelines only, so smoke and full runs compare on
     the same scale; smoke mode skips the router entirely. *)
  let pipelines =
    List.concat
      [
        (if Sys.file_exists "examples/firewall.click" then
           [
             ( "examples/firewall.click",
               Click.Config.parse_file "examples/firewall.click",
               false,
               true );
           ]
         else []);
        [ ("NetFlow+NAT", Click.Config.parse nat_config, false, true) ];
        (if (not smoke) && Sys.file_exists "examples/router.click" then
           [
             ( "examples/router.click",
               Click.Config.parse_file "examples/router.click",
               true,
               false );
           ]
         else []);
      ]
  in
  let rows = ref [] in
  let gated_total = ref 0. in
  List.iter
    (fun (name, pl, with_bound, gated) ->
      let run ~certify =
        Summaries.clear ();
        Solver.Cache.clear Solver.shared_cache;
        (* Level the heap between the plain and certified runs: floating
           garbage inherited from the previous run otherwise inflates
           whichever run happens second. *)
        Gc.compact ();
        Solver.reset_stats ();
        let config = { V.default_config with V.certify } in
        let crash = V.check_crash_freedom ~config pl in
        let bound =
          if with_bound then Some (V.instruction_bound ~config pl) else None
        in
        (crash, bound)
      in
      (* Warm up once, untimed: hash-consed terms survive the run (the
         intern table is deliberately permanent), so the first
         verification of a pipeline pays major-GC marking over a growing
         live set while every later one marks the full set throughout —
         about 2x slower wall, whatever the mode. Warming up puts both
         timed runs on the later, steady-state side of that cliff, so
         the ratio below measures certification cost and nothing else. *)
      ignore (run ~certify:false);
      let (c0, b0), dt0 = time (fun () -> run ~certify:false) in
      let (c1, b1), dt1 = time (fun () -> run ~certify:true) in
      if gated then gated_total := !gated_total +. dt1;
      let bound_of r = Option.bind r (fun (b : V.bound_report) -> b.V.bound) in
      let verdict_ok =
        same_verdict c0.V.verdict c1.V.verdict && bound_of b0 = bound_of b1
      in
      (* Every property the certified run proved must carry a summary
         with full coverage; a Proved verdict with an uncertified (or
         missing) refutation is exactly what this experiment exists to
         catch. *)
      let summaries =
        (match c1.V.cert with
        | Some s -> [ ("crash", s) ]
        | None -> [])
        @
        match b1 with
        | Some b -> (
          match b.V.b_cert with Some s -> [ ("bound", s) ] | None -> [])
        | None -> []
      in
      let covered =
        summaries <> []
        && List.for_all
             (fun (_, (s : C.summary)) ->
               s.C.failed = 0 && s.C.certified = s.C.attempted)
             summaries
      in
      let cert_json (s : C.summary) =
        Json.Obj
          [
            ("attempted", Json.Int s.C.attempted);
            ("certified", Json.Int s.C.certified);
            ("failed", Json.Int s.C.failed);
            ("folded", Json.Int s.C.folded);
            ("interval", Json.Int s.C.interval);
            ("drat", Json.Int s.C.drat);
            ("cached", Json.Int s.C.cached);
            ("proof_clauses", Json.Int s.C.proof_clauses);
            ("proof_deletions", Json.Int s.C.proof_deletions);
            ("pcache_hits", Json.Int s.C.pcache_hits);
            ("trimmed_clauses", Json.Int s.C.trimmed_clauses);
            ("untrimmed_clauses", Json.Int s.C.untrimmed_clauses);
            ("solve_seconds", Json.Float s.C.solve_seconds);
            ("check_seconds", Json.Float s.C.check_seconds);
          ]
      in
      Printf.printf
        "%-28s plain %.2fs / certified %.2fs (%.2fx): %s, %s\n%!" name dt0
        dt1
        (if dt0 > 0. then dt1 /. dt0 else 0.)
        (verdict_str c1.V.verdict)
        (if verdict_ok && covered then
           String.concat "; "
             (List.map
                (fun (prop, (s : C.summary)) ->
                  Printf.sprintf "%s %d/%d certified" prop s.C.certified
                    s.C.attempted)
                summaries)
         else "FAILED");
      if not verdict_ok then begin
        Printf.printf "E10 FAILED: certification changed the verdict on %s\n"
          name;
        exit_code := 1
      end;
      if not covered then begin
        Printf.printf "E10 FAILED: uncertified refutations on %s\n" name;
        exit_code := 1
      end;
      (* Always-on gate: certification may cost at most 1.5x the plain
         run (it used to cost 5-7x before backward trimming, core-subset
         re-blasting and the proof cache). A small absolute floor keeps
         sub-second runs from failing on timer jitter. *)
      let ratio = if dt0 > 0. then dt1 /. dt0 else 0. in
      if dt1 > (1.5 *. dt0) +. 0.2 then begin
        Printf.printf
          "E10 FAILED: certified run %.2fs is more than 1.5x the plain \
           %.2fs on %s\n"
          dt1 dt0 name;
        exit_code := 1
      end;
      (* Backward trimming must actually shrink every freshly produced
         DRAT proof set: strictly fewer clauses kept than the forward
         log recorded. *)
      let trim_ok =
        List.for_all
          (fun (_, (s : C.summary)) ->
            s.C.drat = 0
            || (s.C.trimmed_clauses < s.C.untrimmed_clauses
               && s.C.proof_deletions = 0))
          summaries
      in
      if not trim_ok then begin
        Printf.printf
          "E10 FAILED: trimmed proofs not strictly smaller than the \
           forward log on %s\n"
          name;
        exit_code := 1
      end;
      rows :=
        Json.Obj
          [
            ("pipeline", Json.Str name);
            ("crash_verdict", Json.Str (verdict_str c1.V.verdict));
            ( "bound",
              match bound_of b1 with
              | Some b -> Json.Int b
              | None -> Json.Str (if with_bound then "none" else "skipped")
            );
            ("verdicts_agree", Json.Bool verdict_ok);
            ("fully_certified", Json.Bool covered);
            ("trim_strictly_smaller", Json.Bool trim_ok);
            ("seconds_plain", Json.Float dt0);
            ("seconds_certified", Json.Float dt1);
            ("certified_over_plain", Json.Float ratio);
            ( "certificates",
              Json.Obj (List.map (fun (p, s) -> (p, cert_json s)) summaries)
            );
          ]
        :: !rows)
    pipelines;
  record "pipelines" (Json.List (List.rev !rows));
  record "smoke" (Json.Bool smoke);
  record "gated_certify_seconds" (Json.Float !gated_total);
  match
    json_float_field "BENCH_e10_baseline.json" "gated_certify_seconds"
  with
  | Some baseline ->
    let floor = max baseline 0.001 in
    let regressed = !gated_total > 2. *. floor in
    record "baseline_seconds" (Json.Float baseline);
    record "regressed" (Json.Bool regressed);
    if regressed then begin
      Printf.printf
        "E10 FAILED: certified runs took %.2fs, more than 2x the baseline \
         %.2fs\n"
        !gated_total baseline;
      exit_code := 1
    end
    else
      Printf.printf "no regression vs baseline (%.2fs <= 2x %.2fs)\n"
        !gated_total floor
  | None ->
    Printf.printf "no BENCH_e10_baseline.json; skipping regression check\n"

(* {1 E11 — batched runtime and compiled fast-path throughput} *)

(* Packets/sec on the evaluation pipelines, one run per engine. Each
   engine gets a fresh instance and an identically seeded workload, so
   store evolution is the same on every run — which lets the experiment
   double as a differential check: aggregate stats (finals, instruction
   totals, per-packet max) must agree bit for bit across engines.

   The regression gate is on the compiled-vs-scalar speedup ratio, not
   absolute pps, so the committed baseline is machine-independent. *)
let e11 () =
  section
    "E11: packets/sec — scalar interpreter vs batched vs batched+compiled";
  let smoke = Sys.getenv_opt "VDP_E11_SMOKE" <> None in
  let count = if smoke then 5_000 else 200_000 in
  let seed = 11 in
  let pipelines =
    [
      ("ip-router (7 elements)", full_router ());
      ("NetFlow+NAT", Click.Config.parse nat_config);
    ]
    @ List.filter_map
        (fun path ->
          if Sys.file_exists path then
            Some (path, Click.Config.parse_file path)
          else None)
        [ "examples/firewall.click" ]
  in
  let engines = Click.Runtime.[ Scalar; Batched; Compiled ] in
  Printf.printf "%d packets per run (seed %d)%s\n\n" count seed
    (if smoke then " [smoke]" else "");
  Printf.printf "%-24s %10s %12s %10s %9s\n" "pipeline" "engine" "pps"
    "speedup" "time(s)";
  let rows = ref [] in
  let stats_diverged = ref false in
  let best_speedup = ref 0. in
  List.iter
    (fun (name, pl) ->
      let scalar_pps = ref 0. in
      let scalar_stats = ref None in
      (* A fixed template pool driven round-robin (steady state, no
         allocation in the timed loop) rather than one list of [count]
         packets: hundreds of MB of live packet buffers would make the
         timings GC noise. Same pool and order per engine: identical
         packets, so identical outcomes and store evolution are
         required, not hoped for. *)
      let templates =
        Array.of_list (Gen.workload ~seed ~nflows:32 ~corrupt_ratio:0.1 1024)
      in
      List.iter
        (fun engine ->
          let inst = Click.Runtime.instantiate ~engine pl in
          Gc.full_major ();
          let st, dt =
            time (fun () -> Click.Runtime.run_pool inst templates count)
          in
          let pps = if dt > 0. then float_of_int st.Click.Runtime.sent /. dt else 0. in
          (match engine with
          | Click.Runtime.Scalar ->
            scalar_pps := pps;
            scalar_stats := Some st
          | _ -> ());
          let speedup = if !scalar_pps > 0. then pps /. !scalar_pps else 1. in
          (match engine with
          | Click.Runtime.Compiled ->
            if speedup > !best_speedup then best_speedup := speedup
          | _ -> ());
          let agree =
            match !scalar_stats with
            | None -> true
            | Some s0 ->
              s0.Click.Runtime.sent = st.Click.Runtime.sent
              && s0.Click.Runtime.egressed = st.Click.Runtime.egressed
              && s0.Click.Runtime.dropped = st.Click.Runtime.dropped
              && s0.Click.Runtime.crashed = st.Click.Runtime.crashed
              && s0.Click.Runtime.hop_budget = st.Click.Runtime.hop_budget
              && s0.Click.Runtime.instrs = st.Click.Runtime.instrs
              && s0.Click.Runtime.max_instrs = st.Click.Runtime.max_instrs
          in
          if not agree then begin
            stats_diverged := true;
            Printf.printf
              "    DIVERGED: %s %s disagrees with scalar on aggregate stats\n"
              name
              (Click.Runtime.engine_name engine)
          end;
          Printf.printf "%-24s %10s %12.0f %9.1fx %9.2f%s\n%!" name
            (Click.Runtime.engine_name engine)
            pps speedup dt
            (if agree then "" else "  [STATS DIVERGED]");
          rows :=
            Json.Obj
              [
                ("pipeline", Json.Str name);
                ("engine", Json.Str (Click.Runtime.engine_name engine));
                ("packets", Json.Int st.Click.Runtime.sent);
                ("egressed", Json.Int st.Click.Runtime.egressed);
                ("dropped", Json.Int st.Click.Runtime.dropped);
                ("crashed", Json.Int st.Click.Runtime.crashed);
                ("hop_budget", Json.Int st.Click.Runtime.hop_budget);
                ("instrs", Json.Int st.Click.Runtime.instrs);
                ("pps", Json.Float pps);
                ("speedup_vs_scalar", Json.Float speedup);
                ("seconds", Json.Float dt);
                ("stats_match_scalar", Json.Bool agree);
              ]
            :: !rows)
        engines)
    pipelines;
  record "runs" (Json.List (List.rev !rows));
  record "packets_per_run" (Json.Int count);
  record "seed" (Json.Int seed);
  record "smoke" (Json.Bool smoke);
  record "best_compiled_speedup" (Json.Float !best_speedup);
  if !stats_diverged then begin
    Printf.printf "\nE11 FAILED: engines disagreed on aggregate stats\n";
    exit_code := 1
  end;
  (* Timing gates only outside smoke mode — 5k-packet smoke runs are
     noise-dominated, but the cross-engine stats check above always
     applies. *)
  if not smoke then begin
    if !best_speedup < 10. then begin
      Printf.printf
        "\nE11 FAILED: best compiled speedup %.1fx is below the 10x target\n"
        !best_speedup;
      exit_code := 1
    end;
    match
      json_float_field "BENCH_e11_baseline.json" "best_compiled_speedup"
    with
    | Some baseline ->
      let regressed = !best_speedup < 0.5 *. baseline in
      record "baseline_speedup" (Json.Float baseline);
      record "regressed" (Json.Bool regressed);
      if regressed then begin
        Printf.printf
          "E11 FAILED: best compiled speedup %.1fx is less than half the \
           baseline %.1fx\n"
          !best_speedup baseline;
        exit_code := 1
      end
      else
        Printf.printf
          "\nbest compiled speedup %.1fx (baseline %.1fx; no regression)\n"
          !best_speedup baseline
    | None ->
      Printf.printf
        "\nbest compiled speedup %.1fx; no BENCH_e11_baseline.json, \
         skipping regression check\n"
        !best_speedup
  end

(* {1 E12 — re-verification latency under config churn}

   The paper's pitch is verification you can afford to re-run when the
   configuration changes. This experiment builds a production-scale
   (1M-prefix) FIB behind RadixIPLookup, proves the router crash-free,
   then applies single route changes and measures how long the verifier
   takes to produce the next verdict. Step-1 summaries and Step-2 query
   cache entries are tagged with the static-state slices they read, so
   a rule change invalidates only dependent entries — for the radix
   element (whose table reads are symbolic in the address, hence
   content-independent) that is {e nothing}, and re-verification is a
   summary-cache probe returning the memoized verdict in milliseconds.

   Gates: the 1M-entry tables must build in a few seconds (this part
   runs in CI via VDP_E12_SMOKE=1); the array-backed DIR-16-8-8 store
   must agree with the reference trie on randomized lookups; the
   incremental verdict must equal the from-scratch one and arrive at
   least 10x faster (regression-gated against BENCH_e12_baseline.json). *)

let e12 () =
  section "E12: re-verification latency after a route change (1M-entry FIB)";
  let smoke = Sys.getenv_opt "VDP_E12_SMOKE" <> None in
  (* Table size is overridable for experimentation; the gates below are
     calibrated for (and CI runs at) the default 1M. *)
  let nroutes =
    match Sys.getenv_opt "VDP_E12_ROUTES" with
    | Some s -> (try int_of_string s with _ -> 1_000_000)
    | None -> 1_000_000
  in
  let rng = Random.State.make [| 0xe12 |] in
  let mask32 len =
    if len = 0 then 0 else 0xffffffff lxor ((1 lsl (32 - len)) - 1)
  in
  let rand32 () =
    ((Random.State.bits rng land 0xffff) lsl 16)
    lor (Random.State.bits rng land 0xffff)
  in
  (* Internet-table-like prefix-length mix (BGP reports): /24 dominates,
     mid lengths taper off toward /17, long prefixes are a small tail
     concentrated at /28-/32. *)
  let gen_plen () =
    let r = Random.State.int rng 1000 in
    if r < 10 then 8 + Random.State.int rng 8
    else if r < 60 then 16
    else if r < 65 then 17
    else if r < 75 then 18
    else if r < 95 then 19
    else if r < 130 then 20
    else if r < 170 then 21
    else if r < 270 then 22
    else if r < 370 then 23
    else if r < 950 then 24
    else if r < 960 then 25 + Random.State.int rng 3
    else 28 + Random.State.int rng 5
  in
  let gen_route () =
    let plen = gen_plen () in
    {
      Click.El_lookup.prefix = rand32 () land mask32 plen;
      plen;
      gw = 0;
      port = Random.State.int rng 3;
    }
  in
  let routes =
    { Click.El_lookup.prefix = 0; plen = 0; gw = 0; port = 2 }
    :: List.init nroutes (fun _ -> gen_route ())
  in
  (* Mutations from here on sweep the verification caches; empty them
     so the millions of build-time slot writes sweep empty tables. *)
  Summaries.clear ();
  Vdp_verif.Staleness.reset_stats ();
  (* 1M-entry builds: the standalone DIR-16-8-8 array store and the
     element-level FIB (three shared static stores + ownership maps). *)
  let triples =
    List.map
      (fun (r : Click.El_lookup.route) ->
        (r.Click.El_lookup.prefix, r.Click.El_lookup.plen,
         r.Click.El_lookup.port + 1))
      routes
  in
  let dir, dir_dt = time (fun () -> Vdp_tables.Dir_lpm.of_routes triples) in
  let fib, fib_dt =
    time (fun () -> Click.El_lookup.Fib.create ~nports:3 routes)
  in
  let dir_slots = Vdp_tables.Dir_lpm.memory_slots dir in
  Printf.printf
    "build (%d routes): DIR-16-8-8 %.2fs (%d slots, ~%.0f MB), element FIB \
     %.2fs (%d routes)\n"
    (List.length routes) dir_dt dir_slots
    (float_of_int (dir_slots * 9) /. 1e6)
    fib_dt
    (Click.El_lookup.Fib.count fib);
  let build_budget = 8.0 in
  if dir_dt > build_budget || fib_dt > build_budget then begin
    Printf.printf "E12 FAILED: 1M-entry build exceeded %.0fs\n" build_budget;
    exit_code := 1
  end;
  (* Randomized differential of the compact store against the reference
     trie, on a deduplicated subset (the trie is pointer-fat at 1M). *)
  let sub_n = 100_000 in
  let dedup = Hashtbl.create sub_n in
  List.iter
    (fun (p, l, v) ->
      if Hashtbl.length dedup < sub_n || Hashtbl.mem dedup (p, l) then
        Hashtbl.replace dedup (p, l) v)
    triples;
  let sub = Hashtbl.fold (fun (p, l) v acc -> (p, l, v) :: acc) dedup [] in
  let trie = Vdp_tables.Lpm.of_list sub in
  let dir_sub = Vdp_tables.Dir_lpm.of_routes sub in
  let nlookups = if smoke then 50_000 else 200_000 in
  let mismatches = ref 0 in
  for _ = 1 to nlookups do
    let addr = rand32 () in
    if Vdp_tables.Lpm.lookup trie addr <> Vdp_tables.Dir_lpm.lookup dir_sub addr
    then incr mismatches
  done;
  Printf.printf "differential vs trie: %d lookups, %d mismatches\n" nlookups
    !mismatches;
  if !mismatches > 0 then begin
    Printf.printf "E12 FAILED: DIR store disagrees with the reference trie\n";
    exit_code := 1
  end;
  (* The router pipeline with the 1M-entry FIB behind RadixIPLookup. *)
  let rt =
    Click.Element.make ~name:"rt" ~cls:"RadixIPLookup"
      ~config:[ Printf.sprintf "<%d routes>" (Click.El_lookup.Fib.count fib) ]
      (Click.El_lookup.radix_program fib)
  in
  let elements =
    List.map
      (fun (e : Click.Element.t) ->
        if e.Click.Element.name = "rt" then rt else e)
      (router_elements ())
  in
  let pl = Click.Pipeline.linear elements in
  let session = V.session pl in
  let (r_cold, _), cold_dt = time (fun () -> V.verify_crash session) in
  Printf.printf "initial verification: %s in %.2fs\n"
    (verdict_str r_cold.V.verdict)
    cold_dt;
  (* Churn: single-route changes, each followed by re-verification. *)
  Vdp_verif.Staleness.reset_stats ();
  let rounds = if smoke then 3 else 10 in
  let latencies = ref [] in
  let verdicts_agree = ref true in
  for i = 1 to rounds do
    let prefix = rand32 () land mask32 24 in
    if i mod 3 = 0 then
      ignore (Click.El_lookup.Fib.delete fib ~prefix ~plen:24)
    else
      Click.El_lookup.Fib.insert fib
        { Click.El_lookup.prefix; plen = 24; gw = 0; port = i mod 3 };
    let (r, _reused), dt = time (fun () -> V.verify_crash session) in
    latencies := dt :: !latencies;
    if verdict_str r.V.verdict <> verdict_str r_cold.V.verdict then
      verdicts_agree := false
  done;
  let lat = !latencies in
  let lat_max = List.fold_left max 0. lat in
  let lat_avg =
    List.fold_left ( +. ) 0. lat /. float_of_int (List.length lat)
  in
  let st = Vdp_verif.Staleness.stats in
  Printf.printf
    "%d single-route changes: re-verify avg %.4fs, max %.4fs\n\
     staleness: %d slot writes swept, %d summaries + %d cached queries \
     invalidated\n"
    rounds lat_avg lat_max st.Vdp_verif.Staleness.mutations
    st.Vdp_verif.Staleness.summaries_dropped
    st.Vdp_verif.Staleness.queries_dropped;
  (* From-scratch comparison run: cold caches, same pipeline. *)
  Summaries.clear ();
  let r_scratch, scratch_dt =
    time (fun () -> V.check_crash_freedom pl)
  in
  if verdict_str r_scratch.V.verdict <> verdict_str r_cold.V.verdict then
    verdicts_agree := false;
  let speedup = scratch_dt /. max lat_max 1e-6 in
  Printf.printf
    "from-scratch re-verification: %s in %.2fs -> incremental speedup %.0fx\n"
    (verdict_str r_scratch.V.verdict)
    scratch_dt speedup;
  (* Dynamic-state churn: the NAT/IPRewriter mapping table. Route churn
     above sweeps the mutated prefix cone out of the caches because
     Step-1 bakes concrete static-store reads into segments. Dynamic
     stores are the opposite contract — Step 1 havocs every read, so the
     verdict holds for *any* map contents and runtime churn of the
     rewriter map must invalidate nothing: re-verification is pure
     session reuse, and a from-scratch run on the churned state agrees. *)
  let nat_pl = Click.Config.parse nat_config in
  let nat_session = V.session nat_pl in
  let (n_cold, _), n_cold_dt = time (fun () -> V.verify_crash nat_session) in
  Printf.printf "NAT initial verification: %s in %.2fs\n"
    (verdict_str n_cold.V.verdict)
    n_cold_dt;
  let nat_inst = Click.Runtime.instantiate nat_pl in
  let nat_node =
    let nodes = Click.Pipeline.nodes nat_pl in
    let found = ref (-1) in
    Array.iteri
      (fun i (n : Click.Pipeline.node) ->
        if n.Click.Pipeline.element.Click.Element.name = "nat" then found := i)
      nodes;
    if !found < 0 then failwith "e12: no nat node";
    !found
  in
  (* Populate the map organically first: established flows. *)
  List.iter
    (fun pkt -> ignore (Click.Runtime.push nat_inst pkt))
    (Gen.workload ~nflows:16 ~corrupt_ratio:0.0 64);
  Vdp_verif.Staleness.reset_stats ();
  let nat_rounds = if smoke then 3 else 10 in
  let nat_lat = ref [] in
  let nat_agree = ref true in
  for i = 1 to nat_rounds do
    (* One churned binding per round: a new flow claims a public port,
       exactly what the dataplane does to this table at line rate. *)
    Click.Runtime.load_state nat_inst
      [
        ( nat_node,
          "nat_map",
          [
            ( B.of_int ~width:48 ((0x0a00_0000 + i) * 65536 + 40_000 + i),
              B.of_int ~width:16 (2048 + i) );
          ] );
      ];
    let (r, _), dt = time (fun () -> V.verify_crash nat_session) in
    nat_lat := dt :: !nat_lat;
    if verdict_str r.V.verdict <> verdict_str n_cold.V.verdict then
      nat_agree := false
  done;
  let nat_max = List.fold_left max 0. !nat_lat in
  let nst = Vdp_verif.Staleness.stats in
  let nat_invalidated =
    nst.Vdp_verif.Staleness.summaries_dropped
    + nst.Vdp_verif.Staleness.queries_dropped
  in
  Summaries.clear ();
  let n_scratch, n_scratch_dt = time (fun () -> V.check_crash_freedom nat_pl) in
  if verdict_str n_scratch.V.verdict <> verdict_str n_cold.V.verdict then
    nat_agree := false;
  Printf.printf
    "NAT map churn: %d bindings, re-verify max %.4fs, %d cache entries \
     invalidated; from-scratch %s in %.2fs\n"
    nat_rounds nat_max nat_invalidated
    (verdict_str n_scratch.V.verdict)
    n_scratch_dt;
  record "nat_churn_rounds" (Json.Int nat_rounds);
  record "nat_reverify_seconds_max" (Json.Float nat_max);
  record "nat_entries_invalidated" (Json.Int nat_invalidated);
  record "nat_scratch_seconds" (Json.Float n_scratch_dt);
  record "nat_verdicts_match" (Json.Bool !nat_agree);
  if not !nat_agree then begin
    Printf.printf
      "E12 FAILED: NAT incremental and from-scratch verdicts disagree\n";
    exit_code := 1
  end;
  if nat_invalidated <> 0 then begin
    Printf.printf
      "E12 FAILED: dynamic-map churn invalidated %d cache entries (dynamic \
       reads are havoc-modelled; nothing may depend on map contents)\n"
      nat_invalidated;
    exit_code := 1
  end;
  if nat_max > 0.25 then begin
    Printf.printf
      "E12 FAILED: re-verification after a NAT map change took %.3fs \
       (pure session reuse expected)\n"
      nat_max;
    exit_code := 1
  end;
  record "routes" (Json.Int (Click.El_lookup.Fib.count fib));
  record "dir_build_seconds" (Json.Float dir_dt);
  record "fib_build_seconds" (Json.Float fib_dt);
  record "dir_slots" (Json.Int dir_slots);
  record "differential_lookups" (Json.Int nlookups);
  record "differential_mismatches" (Json.Int !mismatches);
  record "cold_seconds" (Json.Float cold_dt);
  record "churn_rounds" (Json.Int rounds);
  record "incremental_seconds_avg" (Json.Float lat_avg);
  record "incremental_seconds_max" (Json.Float lat_max);
  record "scratch_seconds" (Json.Float scratch_dt);
  record "incremental_speedup" (Json.Float speedup);
  record "verdicts_match" (Json.Bool !verdicts_agree);
  record "slot_writes" (Json.Int st.Vdp_verif.Staleness.mutations);
  record "summaries_invalidated"
    (Json.Int st.Vdp_verif.Staleness.summaries_dropped);
  record "queries_invalidated"
    (Json.Int st.Vdp_verif.Staleness.queries_dropped);
  record "smoke" (Json.Bool smoke);
  if not !verdicts_agree then begin
    Printf.printf
      "E12 FAILED: incremental and from-scratch verdicts disagree\n";
    exit_code := 1
  end;
  if lat_max > 0.25 then begin
    Printf.printf
      "E12 FAILED: re-verification after 1 change took %.3fs (target: \
       milliseconds)\n"
      lat_max;
    exit_code := 1
  end;
  if speedup < 10. then begin
    Printf.printf
      "E12 FAILED: incremental re-verification only %.1fx faster than \
       from-scratch (need >= 10x)\n"
      speedup;
    exit_code := 1
  end;
  if not smoke then
    match json_float_field "BENCH_e12_baseline.json" "incremental_speedup" with
    | Some baseline ->
      let regressed = speedup < 0.5 *. baseline in
      record "baseline_speedup" (Json.Float baseline);
      record "regressed" (Json.Bool regressed);
      if regressed then begin
        Printf.printf
          "E12 FAILED: incremental speedup %.0fx is less than half the \
           baseline %.0fx\n"
          speedup baseline;
        exit_code := 1
      end
      else
        Printf.printf "no regression vs baseline (%.0fx >= half of %.0fx)\n"
          speedup baseline
    | None ->
      Printf.printf
        "no BENCH_e12_baseline.json; skipping regression check\n"

(* {1 E13: topology fabric — relational isolation and reachability}

   Two parts. (a) The two-tenants-behind-a-NAT fabric (the committed
   examples/multi_tenant.click, inlined here so the bench is
   cwd-independent): every declared property must come back exactly as
   designed — reach with a replay-confirmed witness, isolate as a
   certified Proved verdict, temporal with a confirmed two-packet
   flow. (b) The adversarial scenario generator: randomized
   multi-tenant fabrics with leaks planted with ground truth must
   score 100% detection with every breach witness replay-Confirmed
   end-to-end, zero false leaks on the safe pairs, and no unknowns.
   Query latency is regression-gated against BENCH_e13_baseline.json.
   CI runs the small-fabric mode via VDP_E13_SMOKE=1. *)

let multi_tenant_src =
  {|
topology {
  pipeline tenant_a {
    cl :: Classifier(12/0800, -);
    chk :: CheckIPHeader;
    cl[0] -> Strip(14) -> chk -> IPFilter(allow src 10.1.0.0/16, deny all);
    chk[1] -> Discard;
    cl[1] -> Discard;
  }
  pipeline tenant_b {
    cl :: Classifier(12/0800, -);
    chk :: CheckIPHeader;
    cl[0] -> Strip(14) -> chk -> IPFilter(allow src 10.2.0.0/16, deny all);
    chk[1] -> Discard;
    cl[1] -> Discard;
  }
  pipeline wan_in {
    cl :: Classifier(12/0800, -);
    chk :: CheckIPHeader;
    cl[0] -> Strip(14) -> chk;
    chk[1] -> Discard;
    cl[1] -> Discard;
  }
  pipeline gw {
    nat :: NATGateway(203.0.113.1);
    rt :: StaticIPLookup(10.1.0.0/16 0, 10.2.0.0/16 1);
    nat[1] -> rt;
    nat[2] -> Discard;
  }
  tenant_a[0] -> [0] gw;
  tenant_b[0] -> [0] gw;
  wan_in[0] -> [1] gw;
  ingress a = tenant_a;
  ingress b = tenant_b;
  ingress wan = wan_in;
  egress wan_out = gw[0];
  egress lan_a = gw[1];
  egress lan_b = gw[2];
  reach a -> wan_out;
  reach b -> wan_out;
  isolate a -> lan_b;
  isolate b -> lan_a;
  temporal wan -> lan_a;
  temporal wan -> lan_b;
}
|}

let e13 () =
  section "E13: cross-pipeline isolation and reachability over fabrics";
  let module F = Vdp_topo.Fabric in
  let module R = Vdp_topo.Relation in
  let module Q = Vdp_topo.Query in
  let module Sc = Vdp_topo.Scenario in
  let smoke = Sys.getenv_opt "VDP_E13_SMOKE" <> None in
  (* Part (a): the NAT fabric with its declared property suite. *)
  let fab =
    match Click.Config.parse_source multi_tenant_src with
    | Click.Config.Fabric topo -> F.of_topo topo
    | Click.Config.Single _ -> failwith "e13: expected a topology"
  in
  let qcfg = { Q.default_config with Q.certify = true } in
  let rel, build_dt = time (fun () -> R.build ~config:qcfg.Q.engine fab) in
  Printf.printf "fabric build (%d pipelines): %.3fs\n%!"
    (Array.length fab.F.pipes) build_dt;
  let prows = ref [] in
  let query_dt = ref 0. in
  List.iter
    (fun prop ->
      let r, dt = time (fun () -> Q.run ~config:qcfg rel prop) in
      query_dt := !query_dt +. dt;
      let ok =
        match (prop, r.Q.verdict) with
        | Click.Config.Reach _, Q.Holds (Some f) -> f.Q.w_confirmed
        | Click.Config.Isolate _, Q.Holds None -> Q.cert_complete r.Q.cert
        | Click.Config.Temporal _, Q.Holds (Some f) -> f.Q.w_confirmed
        | _ -> false
      in
      Printf.printf "  %-24s %-30s depth %d, %d paths, %d checks, %.3fs%s\n%!"
        (Q.prop_to_string r.Q.prop)
        (Q.verdict_to_string r.Q.verdict)
        r.Q.depth r.Q.paths r.Q.checks dt
        (if ok then "" else "  <- FAILED");
      if not ok then begin
        Printf.printf "E13 FAILED: %s did not come back as designed\n"
          (Q.prop_to_string prop);
        exit_code := 1
      end;
      prows :=
        Json.Obj
          [
            ("prop", Json.Str (Q.prop_to_string prop));
            ("verdict", Json.Str (Q.verdict_to_string r.Q.verdict));
            ("depth", Json.Int r.Q.depth);
            ("paths", Json.Int r.Q.paths);
            ("checks", Json.Int r.Q.checks);
            ("seconds", Json.Float dt);
            ("ok", Json.Bool ok);
          ]
        :: !prows)
    fab.F.props;
  (* Part (b): planted-leak detection on generated fabrics. *)
  let tenants = if smoke then 2 else 3 in
  let seeds = if smoke then [ 1 ] else [ 1; 2; 3 ] in
  let leaks = [ `None; `Dropped_deny; `Misordered ] in
  let leak_name = function
    | `None -> "none"
    | `Dropped_deny -> "dropped_deny"
    | `Misordered -> "misordered"
  in
  let srows = ref [] in
  let tot_planted = ref 0 and tot_detected = ref 0 in
  let tot_safe = ref 0 and tot_safe_proved = ref 0 in
  let tot_false = ref 0 and tot_unknowns = ref 0 in
  let all_conf = ref true in
  let scen_dt = ref 0. in
  List.iter
    (fun seed ->
      List.iter
        (fun leak ->
          let sc = Sc.generate ~tenants ~seed ~leak () in
          let score, dt = time (fun () -> Sc.check sc) in
          scen_dt := !scen_dt +. dt;
          Printf.printf
            "  seed %d %-13s detected %d/%d, false %d, safe proved %d/%d, \
             unknowns %d%s (%.3fs)\n%!"
            seed (leak_name leak) score.Sc.detected score.Sc.planted
            score.Sc.false_leaks score.Sc.safe_proved score.Sc.safe
            score.Sc.unknowns
            (if score.Sc.confirmed then "" else ", UNCONFIRMED breaches")
            dt;
          tot_planted := !tot_planted + score.Sc.planted;
          tot_detected := !tot_detected + score.Sc.detected;
          tot_safe := !tot_safe + score.Sc.safe;
          tot_safe_proved := !tot_safe_proved + score.Sc.safe_proved;
          tot_false := !tot_false + score.Sc.false_leaks;
          tot_unknowns := !tot_unknowns + score.Sc.unknowns;
          if not score.Sc.confirmed then all_conf := false;
          srows :=
            Json.Obj
              [
                ("seed", Json.Int seed);
                ("leak", Json.Str (leak_name leak));
                ("detected", Json.Int score.Sc.detected);
                ("planted", Json.Int score.Sc.planted);
                ("false_leaks", Json.Int score.Sc.false_leaks);
                ("safe_proved", Json.Int score.Sc.safe_proved);
                ("safe", Json.Int score.Sc.safe);
                ("confirmed", Json.Bool score.Sc.confirmed);
                ("seconds", Json.Float dt);
              ]
            :: !srows)
        leaks)
    seeds;
  let detection_rate =
    if !tot_planted = 0 then 1.
    else float_of_int !tot_detected /. float_of_int !tot_planted
  in
  Printf.printf
    "planted-leak detection: %d/%d (%.0f%%), %d false leak(s), safe proved \
     %d/%d\n"
    !tot_detected !tot_planted (100. *. detection_rate) !tot_false
    !tot_safe_proved !tot_safe;
  if detection_rate < 1.0 then begin
    Printf.printf "E13 FAILED: planted leaks went undetected\n";
    exit_code := 1
  end;
  if not !all_conf then begin
    Printf.printf
      "E13 FAILED: a reported breach did not replay-confirm end-to-end\n";
    exit_code := 1
  end;
  if !tot_false > 0 then begin
    Printf.printf "E13 FAILED: false leak(s) on safe pairs\n";
    exit_code := 1
  end;
  if !tot_safe_proved <> !tot_safe || !tot_unknowns > 0 then begin
    Printf.printf "E13 FAILED: safe pairs not all proved\n";
    exit_code := 1
  end;
  record "properties" (Json.List (List.rev !prows));
  record "scenarios" (Json.List (List.rev !srows));
  record "fabric_build_seconds" (Json.Float build_dt);
  record "query_seconds" (Json.Float !query_dt);
  record "scenario_seconds" (Json.Float !scen_dt);
  record "detection_rate" (Json.Float detection_rate);
  record "false_leaks" (Json.Int !tot_false);
  record "breaches_confirmed" (Json.Bool !all_conf);
  record "smoke" (Json.Bool smoke);
  if not smoke then
    match json_float_field "BENCH_e13_baseline.json" "query_seconds" with
    | Some baseline ->
      let floor = max baseline 0.05 in
      let regressed = !query_dt > 2. *. floor in
      record "baseline_query_seconds" (Json.Float baseline);
      record "regressed" (Json.Bool regressed);
      if regressed then begin
        Printf.printf
          "E13 FAILED: property-suite latency %.3fs is more than 2x the \
           baseline %.3fs\n"
          !query_dt baseline;
        exit_code := 1
      end
      else
        Printf.printf "no regression vs baseline (%.3fs <= 2x %.3fs)\n"
          !query_dt floor
    | None ->
      Printf.printf "no BENCH_e13_baseline.json; skipping regression check\n"

(* {1 Micro-benchmarks (Bechamel)} *)

let micro () =
  section "MICRO: substrate micro-benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  (* Workloads prepared outside the timed region. *)
  let router = full_router () in
  let inst = Click.Runtime.instantiate router in
  let frames =
    Array.of_list (Gen.workload ~nflows:32 ~corrupt_ratio:0.2 256)
  in
  let idx = ref 0 in
  let routes =
    List.init 64 (fun i -> ((10 lsl 24) lor (i lsl 16), 16 + (i mod 9), i))
  in
  let trie = Vdp_tables.Lpm.of_list routes in
  let dir = Vdp_tables.Dir_lpm.of_routes routes in
  let ft = Vdp_tables.Flow_table.create ~buckets:1024 ~overflow:1024 in
  let x = T.var "x" 16 and y = T.var "y" 16 in
  let sat_query =
    [ T.ult x y; T.eq (T.band x (T.bv_int ~width:16 0xff)) (T.bv_int ~width:16 0x2a) ]
  in
  let unsat_query =
    [ T.ult x y; T.ult y x ]
  in
  let tests =
    [
      Test.make ~name:"router: push one frame"
        (Staged.stage (fun () ->
             let pkt = P.clone frames.(!idx land 255) in
             incr idx;
             ignore (Click.Runtime.push inst pkt)));
      Test.make ~name:"lpm: trie lookup"
        (Staged.stage (fun () ->
             ignore (Vdp_tables.Lpm.lookup trie 0x0a2a0101)));
      Test.make ~name:"lpm: DIR array lookup"
        (Staged.stage (fun () ->
             ignore (Vdp_tables.Dir_lpm.lookup dir 0x0a2a0101)));
      Test.make ~name:"flow table: set+find"
        (Staged.stage (fun () ->
             incr idx;
             Vdp_tables.Flow_table.set ft (!idx land 1023) !idx;
             ignore (Vdp_tables.Flow_table.find ft (!idx land 1023))));
      Test.make ~name:"solver: small sat query"
        (Staged.stage (fun () -> ignore (Solver.check sat_query)));
      Test.make ~name:"solver: small unsat query"
        (Staged.stage (fun () -> ignore (Solver.check unsat_query)));
      Test.make ~name:"checksum: 20-byte header"
        (Staged.stage
           (let hdr =
              Ipv4.header ~tos:0 ~total_len:40 ~ident:7 ~ttl:64
                ~proto:17 ~src:0x0a000001 ~dst:0x0a000002 ()
            in
            fun () -> ignore (Vdp_packet.Checksum.checksum hdr 0 20)));
      Test.make ~name:"symbex: DecIPTTL summary"
        (Staged.stage (fun () ->
             ignore (E.explore (Click.El_ip.dec_ip_ttl ()))));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            Printf.printf "%-32s %12.1f ns/run\n" name est
          | _ -> Printf.printf "%-32s (no estimate)\n" name)
        results)
    (List.map (fun t -> Test.make_grouped ~name:"" ~fmt:"%s%s" [ t ]) tests)

(* {1 Driver} *)

let all = [ "fig1", fig1; "fig2", fig2; "e1", e1; "e2", e2; "e3", e3;
            "e4", e4; "e5", e5; "e7", e7; "e8", e8; "e9", e9;
            "e10", e10; "e11", e11; "e12", e12; "e13", e13; "micro", micro ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: args when args <> [] -> args
    | _ -> List.map fst all
  in
  List.iter
    (fun name ->
      let name = String.lowercase_ascii name in
      match List.assoc_opt name all with
      | Some f ->
        json_fields := [];
        Solver.reset_stats ();
        let (), dt = time f in
        let out = Printf.sprintf "BENCH_%s.json" name in
        Json.write out
          (Json.Obj
             (("experiment", Json.Str name)
             :: ("wall_seconds", Json.Float dt)
             :: !json_fields
             @ [ ("solver_stats", solver_stats_json ()) ]));
        Printf.printf "[wrote %s]\n%!" out
      | None ->
        Printf.eprintf "unknown experiment %s (have: %s)\n" name
          (String.concat ", " (List.map fst all));
        exit 1)
    requested;
  if !exit_code <> 0 then exit !exit_code
