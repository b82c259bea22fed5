(* The four workloads: what each sets up, which operations it times,
   the known answer every operation must reproduce, and the extra legs
   a traced run adds so that each layer's share can be attributed.

   An operation's [exec] is the timed part; it returns the untimed
   check. Spans around the library calls are no-ops unless the run is
   traced, so traced and untraced runs do the same work. *)

module Click = Vdp_click
module Runtime = Vdp_click.Runtime
module V = Vdp_verif.Verifier
module Summaries = Vdp_verif.Summaries
module Solver = Vdp_smt.Solver
module Cert = Vdp_cert.Certificate
module F = Vdp_topo.Fabric
module R = Vdp_topo.Relation
module Q = Vdp_topo.Query
module Sc = Vdp_topo.Scenario
module Gen = Vdp_packet.Gen
module P = Vdp_packet.Packet

let span = Measure.span

type check = {
  ok : bool;
  note : string;  (** what went wrong, or a one-line summary when ok *)
  attempted : int;  (** operations performed: one verdict, or packets pushed *)
  failed : int;
  facts : (string * float) list;  (** per-layer counts for the traced run *)
}

(* Measured operations make up the timed cycle. The other roles only
   run in a traced run: [Plain] is a measured operation again without
   certificates, [Enumerate] repeats a fabric query's path enumeration
   on its own, [Prefix] times prefix chains of a pipeline. *)
type role = Measured | Plain | Enumerate | Prefix

type op = {
  name : string;
  group : string;  (** the per-property figure this operation adds to *)
  units : int;  (** operations one execution performs *)
  role : role;
  certified : bool;
  exec : unit -> unit -> check;
}

type prepared = {
  setup_wall : float;  (** seconds the kept set-up took *)
  retime : unit -> float list;  (** sets up again, for timing only *)
  setup_spans : Measure.span list;  (** from the kept set-up, when traced *)
  pre : check list;  (** checks made once, after set-up, untimed *)
  ops : op list;
  legs : op list;
}

type t = {
  name : string;
  prepare : smoke:bool -> seed:int -> traced:bool -> prepared;
}

let check ?(facts = []) ok note =
  { ok; note; attempted = 1; failed = (if ok then 0 else 1); facts }

let example file = Filename.concat "examples" file

let parse_file path = span "click.parse" (fun () -> Click.Config.parse_file path)
let parse text = span "click.parse" (fun () -> Click.Config.parse text)

(* Set up three times, each from empty verifier caches and a collected
   heap, and keep the last environment (and its spans, when traced).
   [retime] sets up [per_cycle] more times for timing only: the harness
   runs it in a child once per cycle, so set-up samples spread over the
   run as the operations' do, and the heap the operations inherit does
   not depend on how many cycles ran. Sub-millisecond set-ups take many
   samples per cycle. *)
let set_up ~traced ~per_cycle f =
  let once () =
    Summaries.clear ();
    Solver.Cache.clear Solver.shared_cache;
    Gc.full_major ();
    let t0 = Measure.now () in
    let env = f () in
    (Measure.now () -. t0, env)
  in
  ignore (once ());
  ignore (once ());
  Measure.tracing := traced;
  let setup_wall, env = once () in
  Measure.tracing := false;
  let retime () = List.init per_cycle (fun _ -> fst (once ())) in
  (setup_wall, retime, Measure.take_spans (), env)

(* {1 Pipeline properties} *)

let certified = { V.default_config with V.certify = true }

let full_coverage = function
  | Some (s : Cert.summary) -> s.Cert.failed = 0 && s.Cert.certified = s.Cert.attempted
  | None -> false

let verif_facts (st : V.stats) =
  [
    ("verif.segments", float_of_int st.V.segments_total);
    ("verif.composite_paths", float_of_int st.V.composite_paths);
    ("verif.suspect_checks", float_of_int st.V.suspect_checks);
    ("witness.replays", float_of_int st.V.replays);
    ("witness.confirmed", float_of_int st.V.replays_confirmed);
  ]

(* Step 1 runs first under its own span; the verifier's own Step 1 then
   finds every summary cached, so the second span is Step 2 (with the
   solver, certificates and witness replay it drives). *)
let step1 pl = ignore (span "verif.step1" (fun () -> Summaries.of_pipeline pl))

type crash_answer = Proved | Violated_confirmed of int

let crash_op ?(role = Measured) ~name ~group ~cert pl answer =
  let config = if cert then certified else V.default_config in
  let exec () =
    step1 pl;
    let r = span "verif.step2" (fun () -> V.check_crash_freedom ~config pl) in
    fun () ->
      let facts = verif_facts r.V.stats in
      match (answer, r.V.verdict) with
      | Proved, V.Proved ->
        if (not cert) || full_coverage r.V.cert then check ~facts true "proved"
        else check ~facts false "proved without full certificate coverage"
      | Violated_confirmed n, V.Violated vs ->
        let confirmed = List.length (List.filter (fun v -> v.V.confirmed) vs) in
        let ok = List.length vs = n && confirmed = n in
        check ~facts ok
          (Printf.sprintf "%d violations, %d replay-confirmed (expected %d)"
             (List.length vs) confirmed n)
      | _, v ->
        check ~facts false
          (Format.asprintf "unexpected verdict %a" Vdp_verif.Report.pp_verdict v)
  in
  { name; group; units = 1; role; certified = cert; exec }

let bound_op ?(role = Measured) ~name ~cert pl expected =
  let config = if cert then certified else V.default_config in
  let exec () =
    step1 pl;
    let b = span "verif.step2" (fun () -> V.instruction_bound ~config pl) in
    fun () ->
      let facts = verif_facts b.V.b_stats in
      let got = match b.V.bound with Some n -> string_of_int n | None -> "none" in
      if b.V.bound <> Some expected then
        check ~facts false (Printf.sprintf "bound %s, expected <= %d" got expected)
      else if cert && not (full_coverage b.V.b_cert) then
        check ~facts false "bound without full certificate coverage"
      else check ~facts true ("<= " ^ got)
  in
  { name; group = "bound_s"; units = 1; role; certified = cert; exec }

(* With each measured operation, its uncertified twin for the traced
   run, so certification cost is the difference of two measurements. *)
let with_plain make =
  let plain : op = make ~role:Plain ~cert:false in
  (make ~role:Measured ~cert:true, { plain with name = plain.name ^ ".plain" })

let linear specs =
  Click.Pipeline.linear
    (List.map
       (fun (name, cls, config) -> Click.Registry.make ~name ~cls ~config)
       specs)

(* E1's rewired router: TTL decrement before option processing. *)
let reordered_router () =
  linear
    [
      ("cl", "Classifier", [ "12/0800" ]);
      ("strip", "Strip", [ "14" ]);
      ("chk", "CheckIPHeader", []);
      ("ttl", "DecIPTTL", []);
      ("opts", "IPGWOptions", [ "9.9.9.1" ]);
      ("rt", "StaticIPLookup", [ "0.0.0.0/0 0" ]);
      ("out", "EtherEncap", [ "2048"; "02:00:00:00:00:01"; "02:00:00:00:00:02" ]);
    ]

(* Stateless routers and firewall, certified: Step-1 symbex, solver
   stages and certificates dominate, composition is small. *)
let pipeline_proofs =
  let prepare ~smoke ~seed:_ ~traced =
    let setup_wall, retime, setup_spans, (router, reordered, firewall) =
      set_up ~traced ~per_cycle:20 (fun () ->
          let router = parse_file (example "router.click") in
          let firewall = parse_file (example "firewall.click") in
          let reordered = span "click.parse" reordered_router in
          (router, reordered, firewall))
    in
    let pairs =
      [
        with_plain (fun ~role ~cert ->
            crash_op ~role ~cert ~name:"router.crash" ~group:"crash_s" router Proved);
        with_plain (fun ~role ~cert ->
            crash_op ~role ~cert ~name:"firewall.crash" ~group:"crash_s" firewall
              Proved);
        with_plain (fun ~role ~cert ->
            bound_op ~role ~cert ~name:"router.bound" router 2668);
      ]
      @
      if smoke then []
      else
        [
          with_plain (fun ~role ~cert ->
              crash_op ~role ~cert ~name:"reordered.crash" ~group:"crash_s" reordered
                Proved);
          with_plain (fun ~role ~cert ->
              bound_op ~role ~cert ~name:"reordered.bound" reordered 2672);
        ]
    in
    {
      setup_wall;
      retime;
      setup_spans;
      pre = [];
      ops = List.map fst pairs;
      legs = List.map snd pairs;
    }
  in
  {
    name = "pipeline-proofs";
    prepare;
  }

(* The NetFlow+NAT configuration of experiments E5-E7. *)
let natflow_config =
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

let guarded cls config =
  linear
    [
      ("cl", "Classifier", [ "12/0800" ]);
      ("strip", "Strip", [ "14" ]);
      ("chk", "CheckIPHeader", []);
      ("x", cls, config);
    ]

(* NetFlow+NAT proof and replay-confirmed violations on buggy
   stateful elements: Step-2 composition and witness replay dominate. *)
let stateful_proofs =
  let prepare ~smoke ~seed:_ ~traced =
    let setup_wall, retime, setup_spans, (natflow, buggy) =
      set_up ~traced ~per_cycle:20 (fun () ->
          let natflow = parse natflow_config in
          let buggy =
            span "click.parse" (fun () ->
                [
                  ("buggy_counter", guarded "BuggyCounter" []);
                  ("buggy_quota", guarded "BuggyQuota" [ "1000" ]);
                  ("buggy_nat", guarded "BuggyNAT" [ "198.51.100.1" ]);
                ])
          in
          (natflow, buggy))
    in
    let violations =
      List.map
        (fun (name, pl) ->
          crash_op ~cert:false ~name:(name ^ ".crash") ~group:"violation_s" pl
            (Violated_confirmed 11))
        buggy
    in
    let nat, nat_plain =
      with_plain (fun ~role ~cert ->
          crash_op ~role ~cert ~name:"natflow.crash" ~group:"crash_s" natflow Proved)
    in
    {
      setup_wall;
      retime;
      setup_spans;
      pre = [];
      ops = (if smoke then violations else nat :: violations);
      legs = (if smoke then [] else [ nat_plain ]);
    }
  in
  {
    name = "stateful-proofs";
    prepare;
  }

(* {1 Fabric queries} *)

let query_config cert = { Q.default_config with Q.certify = cert }

type query_answer =
  | Holds_proved  (** [Holds None], fully certified when certifying *)
  | Holds_witness  (** [Holds (Some f)] with a replay-confirmed flow *)
  | Breached  (** [Fails] with every flow replay-confirmed *)

let flows_of = function
  | Q.Holds (Some f) -> [ f ]
  | Q.Fails (fs, _) -> fs
  | Q.Holds None | Q.Unknown _ -> []

let query_op ?(role = Measured) ~name ~group ~cert rel prop answer ~depth =
  let config = query_config cert in
  let exec () =
    let r = span "topo.query" (fun () -> Q.run ~config rel prop) in
    fun () ->
      let flows = flows_of r.Q.verdict in
      let facts =
        [
          ("topo.paths", float_of_int r.Q.paths);
          ("topo.checks", float_of_int r.Q.checks);
          ("witness.replays", float_of_int (List.length flows));
          ( "witness.confirmed",
            float_of_int (List.length (List.filter (fun f -> f.Q.w_confirmed) flows)) );
        ]
      in
      let shape_ok =
        match (answer, r.Q.verdict) with
        | Holds_proved, Q.Holds None -> (not cert) || Q.cert_complete r.Q.cert
        | Holds_witness, Q.Holds (Some f) -> f.Q.w_confirmed
        | Breached, Q.Fails (_ :: _, _) -> Q.all_confirmed r
        | _ -> false
      in
      let summary =
        Printf.sprintf "%s, depth %d" (Q.verdict_to_string r.Q.verdict) r.Q.depth
      in
      if shape_ok && r.Q.depth = depth then check ~facts true summary
      else check ~facts false ("unexpected answer: " ^ summary)
  in
  { name; group; units = 1; role; certified = cert; exec }

(* A query's enumeration alone: the attack paths from its ingress and,
   at depth 2, the priming paths from every ingress — what [Q.run]
   enumerates on the way to its verdict. *)
let enumerate_leg ~name rel ingress ~depth =
  let exec () =
    let q = Q.make_qctx rel (query_config false) in
    let fab = rel.R.fab in
    let ingresses =
      if depth = 1 then [ ingress ] else ingress :: List.map fst fab.F.ingresses
    in
    let n =
      span "topo.enumerate" (fun () ->
          List.fold_left
            (fun acc i -> acc + List.length (Q.paths_from q (F.ingress fab i)))
            0 ingresses)
    in
    fun () -> check true (Printf.sprintf "%d paths" n)
  in
  { name; group = "enumerate"; units = 1; role = Enumerate; certified = false; exec }

let build_fabric source =
  let fab =
    match span "click.parse" (fun () -> Click.Config.parse_source source) with
    | Click.Config.Fabric topo -> F.of_topo topo
    | Click.Config.Single _ -> failwith "expected a topology"
  in
  span "topo.relation_build" (fun () ->
      R.build ~config:(query_config true).Q.engine fab)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* The first two-tenant scenario generated from [seed], [seed + 1], ...
   whose tenants carry only stateless decorations and whose leak is
   planted in tenant 2's deny rule. A stateful Counter multiplies the
   priming candidates of the depth-2 product (the safe pair takes ~1.5x
   as long), and the safe
   pair's cost depends on which tenant it starts from; letting seeds mix
   these classes would make the spread between runs a property of the
   seeds drawn. *)
let rec scenario_from seed =
  let sc = Sc.generate ~tenants:2 ~seed ~leak:`Dropped_deny () in
  if contains sc.Sc.sc_source "Counter" || sc.Sc.sc_planted <> [ ("t1", "lan2") ] then
    scenario_from (seed + 1)
  else sc

(* Certified isolation and reachability over fabrics: relation
   enumeration, grounding and the depth-2 product dominate the
   scenario's queries, the solver the multi-tenant reach. *)
let fabric_queries =
  let prepare ~smoke ~seed ~traced =
    let setup_wall, retime, setup_spans, (multi, scenario, srel) =
      set_up ~traced ~per_cycle:1 (fun () ->
          let multi =
            build_fabric (Click.Config.read_file (example "multi_tenant.click"))
          in
          let sc = scenario_from seed in
          (multi, sc, build_fabric sc.Sc.sc_source))
    in
    let queries =
      let isolate (a, b) = Click.Config.Isolate (a, b) in
      let planted = List.hd scenario.Sc.sc_planted in
      let safe = List.hd scenario.Sc.sc_safe in
      let reach (a, b) = Click.Config.Reach (a, b) in
      (* Longest first, so that in the run's last, cut cycle they take
         the time left before the shorter ones do. *)
      (if smoke then []
       else
         [
           ("multi_tenant.reach", "reach_s", multi, ("a", "wan_out"), reach,
            Holds_witness, 1);
           ("scenario.safe", "isolate_s", srel, safe, isolate, Holds_proved, 2);
         ])
      @ [
          ("multi_tenant.isolate", "isolate_s", multi, ("a", "lan_b"), isolate,
           Holds_proved, 1);
          ("scenario.reach", "reach_s", srel, ("t1", "wan"), reach, Holds_witness, 1);
          ("scenario.planted", "isolate_s", srel, planted, isolate, Breached, 1);
        ]
    in
    let ops, legs =
      List.split
        (List.map
           (fun (name, group, rel, pair, prop, answer, depth) ->
             let make ~role ~cert =
               query_op ~role ~cert ~name ~group rel (prop pair) answer ~depth
             in
             let op, plain = with_plain make in
             let enumerate =
               enumerate_leg ~name:(name ^ ".enumerate") rel (fst pair) ~depth
             in
             (op, [ plain; enumerate ]))
           queries)
    in
    { setup_wall; retime; setup_spans; pre = []; ops; legs = List.concat legs }
  in
  {
    name = "fabric-queries";
    prepare;
  }

(* {1 Forwarding} *)

(* Traffic drawn from the seed: [corrupt] of the frames with one byte
   fuzzed, every [options_every]-th frame carrying IP options (router
   only), flows from [flows]. *)
let pool st ~size ~flows ~corrupt ?options_every () =
  Array.init size (fun i ->
      let f = flows.(Random.State.int st (Array.length flows)) in
      match options_every with
      | Some k when i mod k = 0 ->
        let nops = Random.State.int st 8 in
        Gen.frame_with_options
          ~options:(String.make nops '\x01' ^ "\x07\x07\x04\x00\x00\x00\x00")
          f
      | _ ->
        let p = Gen.frame_of_flow f in
        if Random.State.float st 1.0 < corrupt then Gen.corrupt st p else p)

(* Firewall flows: even ones inside 10.0.0.0/8, which the filter
   admits; odd ones from anywhere, which it mostly denies. *)
let firewall_flows st n =
  Array.init n (fun i ->
      let f = Gen.random_flow st in
      if i mod 2 = 1 then f
      else { f with Gen.src_ip = (10 lsl 24) lor (f.Gen.src_ip land 0xffffff) })

let options_share templates =
  let with_options p = P.length p > 14 && P.get_u8 p 14 land 0x0f > 5 in
  let n = Array.fold_left (fun n p -> if with_options p then n + 1 else n) 0 templates in
  float_of_int n /. float_of_int (Array.length templates)

let same_stats (a : Runtime.stats) (b : Runtime.stats) =
  a.Runtime.sent = b.Runtime.sent
  && a.Runtime.egressed = b.Runtime.egressed
  && a.Runtime.dropped = b.Runtime.dropped
  && a.Runtime.crashed = b.Runtime.crashed
  && a.Runtime.hop_budget = b.Runtime.hop_budget
  && a.Runtime.instrs = b.Runtime.instrs
  && a.Runtime.max_instrs = b.Runtime.max_instrs

let push_op ~name inst templates count =
  let exec () =
    let st = span "runtime.push" (fun () -> Runtime.run_pool inst templates count) in
    fun () ->
      let bad = st.Runtime.crashed + st.Runtime.hop_budget in
      let ok = bad = 0 && st.Runtime.sent = count in
      {
        ok;
        note =
          Printf.sprintf
            "%d sent, %d egressed, %d dropped, %d crashed, %d over hop budget"
            st.Runtime.sent st.Runtime.egressed st.Runtime.dropped st.Runtime.crashed
            st.Runtime.hop_budget;
        attempted = count;
        failed = (if ok then 0 else max 1 bad);
        facts =
          [
            ( "runtime.instrs_per_pkt." ^ name,
              float_of_int st.Runtime.instrs /. float_of_int st.Runtime.sent );
          ];
      }
  in
  { name = name ^ ".push"; group = "pps." ^ name; units = count; role = Measured;
    certified = false; exec }

let sanitize s = String.map (fun c -> if c = '@' then '_' else c) s

(* The first [k] nodes of [order] as a pipeline of their own; outputs
   wired to a node outside it become egresses. *)
let prefix pl order k =
  let node i = Click.Pipeline.node pl i in
  let keep = List.filteri (fun j _ -> j < k) order in
  let pos = Hashtbl.create 16 in
  List.iteri (fun j i -> Hashtbl.replace pos i j) keep;
  let edges =
    List.concat_map
      (fun i ->
        List.filter_map Fun.id
          (List.mapi
             (fun port out ->
               match out with
               | Some (dst, dport) when Hashtbl.mem pos dst ->
                 Some (Hashtbl.find pos i, port, Hashtbl.find pos dst, dport)
               | _ -> None)
             (Array.to_list (node i).Click.Pipeline.outputs)))
      keep
  in
  Click.Pipeline.create (List.map (fun i -> (node i).Click.Pipeline.element) keep) edges

(* Marginal cost of each element, measured over prefix chains in
   topological order: element k costs what chain k adds to chain k-1,
   per packet entering the pipeline. Each chain is timed in a child of
   its own, so no chain runs on another's garbage or table state; the
   chains are timed in [rounds] rounds, and each chain's time is the
   median of its scaled times. The first element's figure includes the
   runtime's own per-packet work, and a nearly free element can read
   slightly negative. Discard sinks are not reported. *)
let prefix_leg ~name ~rounds pl templates count =
  let order =
    let e = Click.Pipeline.entry pl in
    e :: List.filter (fun i -> i <> e) (Click.Pipeline.topological_order pl)
  in
  let chain_ns k =
    match
      Measure.in_child ~timeout:60. (fun () ->
          let inst = Runtime.instantiate ~engine:Runtime.Compiled (prefix pl order k) in
          ignore (Runtime.run_pool inst templates (count / 5));
          let _, _, wall, slowdown =
            Measure.against_slowdown (fun () -> Runtime.run_pool inst templates count)
          in
          wall /. slowdown *. 1e9 /. float_of_int count)
    with
    | Measure.Done ns -> ns
    | Measure.Failed msg -> failwith msg
  in
  let exec () =
    let n = List.length order in
    let rounds =
      List.init rounds (fun _ ->
          List.init n (fun k -> span "runtime.prefix" (fun () -> chain_ns (k + 1))))
    in
    let ns =
      List.init n (fun k -> Measure.median (List.map (fun r -> List.nth r k) rounds))
    in
    fun () ->
      let _, facts =
        List.fold_left2
          (fun (prev, acc) i t ->
            let el = (Click.Pipeline.node pl i).Click.Pipeline.element in
            if el.Click.Element.cls = "Discard" then (t, acc)
            else
              ( t,
                ( Printf.sprintf "runtime.element_ns.%s.%s" name
                    (sanitize el.Click.Element.name),
                  t -. prev )
                :: acc ))
          (0., []) order ns
      in
      check ~facts:(List.rev facts) true (Printf.sprintf "%d prefix chains" n)
  in
  { name = name ^ ".elements"; group = "elements"; units = 1; role = Prefix;
    certified = false; exec }

(* Compiled runtime on router, firewall and NetFlow+NAT traffic: no
   solver, native versus boxed flow-key tiers. *)
let forward =
  let prepare ~smoke ~seed ~traced =
    let pool_size = if smoke then 512 else 4096 in
    let count = if smoke then 20_000 else 250_000 in
    let setup_wall, retime, setup_spans, pipes =
      set_up ~traced ~per_cycle:4 (fun () ->
          let st = Random.State.make [| 0x5eed; seed |] in
          let router = parse_file (example "router.click") in
          let firewall = parse_file (example "firewall.click") in
          let natflow = parse natflow_config in
          let any = Array.init 64 (fun _ -> Gen.random_flow st) in
          let fw_flows = firewall_flows st 64 in
          let nat_flows = Array.init 256 (fun _ -> Gen.random_flow st) in
          let pool = pool st ~size:pool_size ~corrupt:0.1 in
          let pools =
            [
              ("router", router, pool ~flows:any ~options_every:20 ());
              ("firewall", firewall, pool ~flows:fw_flows ());
              ("natflow", natflow, pool ~flows:nat_flows ());
            ]
          in
          List.map
            (fun (name, pl, templates) ->
              let inst =
                span "ir.compile" (fun () ->
                    Runtime.instantiate ~engine:Runtime.Compiled pl)
              in
              (name, pl, templates, inst))
            pools)
    in
    (* Known answers: the compiled engine agrees with the scalar one on
       the first 20k packets of each pool, and the traffic has the
       intended shape. *)
    let pre =
      List.concat_map
        (fun (name, pl, templates, _) ->
          let n = min 20_000 count in
          let run engine =
            Runtime.run_pool (Runtime.instantiate ~engine pl) templates n
          in
          let scalar = run Runtime.Scalar and compiled = run Runtime.Compiled in
          let agree =
            check (same_stats scalar compiled)
              (Printf.sprintf "%s: compiled and scalar engines agree on %d packets"
                 name n)
          in
          let admitted = float_of_int compiled.Runtime.egressed /. float_of_int n in
          match name with
          | "firewall" ->
            [ agree;
              check (admitted >= 0.25 && admitted <= 0.75)
                (Printf.sprintf "firewall admits %.0f%% of packets" (100. *. admitted)) ]
          | "router" ->
            let share = options_share templates in
            [ agree;
              check (share >= 0.04 && share <= 0.06)
                (Printf.sprintf "router traffic has %.1f%% options frames"
                   (100. *. share)) ]
          | _ -> [ agree ])
        pipes
    in
    List.iter
      (fun (_, _, templates, inst) ->
        ignore (Runtime.run_pool inst templates (if smoke then 5_000 else 200_000)))
      pipes;
    {
      setup_wall;
      retime;
      setup_spans;
      pre;
      ops =
        List.map
          (fun (name, _, templates, inst) -> push_op ~name inst templates count)
          pipes;
      legs =
        List.map
          (fun (name, pl, templates, _) ->
            if smoke then prefix_leg ~name ~rounds:1 pl templates 5_000
            else prefix_leg ~name ~rounds:3 pl templates 50_000)
          pipes;
    }
  in
  {
    name = "forward";
    prepare;
  }

let all = [ pipeline_proofs; stateful_proofs; fabric_queries; forward ]
