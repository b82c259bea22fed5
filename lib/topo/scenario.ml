(** Adversarial multi-tenant scenario generator.

    Emits randomized fabrics over the element market in the textual
    [topology { ... }] form (so every generated scenario also exercises
    the parser end-to-end): T tenant ingress pipelines, each admitting
    only its own 10.<t>.0.0/16 source prefix and decorated with a
    random selection of harmless elements, all feeding a shared core
    pipeline whose IPFilter enforces pairwise tenant isolation (deny
    every tenant-destination prefix) before a StaticIPLookup routes
    surviving traffic to the WAN egress.

    Leaks are {e planted} with ground truth:
    - [`Dropped_deny] removes one tenant's deny rule from the core
      filter — every other tenant can then reach that tenant's LAN
      egress, so exactly (T-1) of the T*(T-1) isolate pairs breach.
    - [`Misordered] puts the catch-all allow {e before} the denies
      (first match wins, so every deny is dead) — all pairs breach.
    - [`None] is the leak-free control: all pairs must be proved.

    {!check} runs every pair through {!Query.run_isolate} and scores
    detection: a planted pair must come back [Fails] with every flow
    replay-confirmed, a safe pair must come back [Holds]. *)

module Config = Vdp_click.Config

type leak = [ `None | `Dropped_deny | `Misordered ]

type scenario = {
  sc_source : string;  (** the generated topology config text *)
  sc_fab : Fabric.t;
  sc_tenants : int;
  sc_leak : leak;
  sc_planted : (string * string) list;
      (** (ingress, egress) pairs that must be detected as breaches *)
  sc_safe : (string * string) list;  (** pairs that must hold *)
}

let tenant_prefix t = Printf.sprintf "10.%d.0.0/16" t

(* A random harmless decoration for a tenant pipeline, as a chain
   fragment. Single-output elements only: an unwired extra output
   would register as an egress point and shift the pipeline's egress
   numbering. Stateful decorations key their stores at fixed offsets
   (Counter, not FlowCounter): a store keyed on data behind a variable
   header length splits into one unmergeable write-bearing state per
   header length, and the cross-pipeline product of those states with
   the two IPFilters made one 3-tenant scenario ~50x slower. *)
let decoration st t =
  match Random.State.int st 3 with
  | 0 -> Printf.sprintf "Paint(%d)" (t land 0xff)
  | 1 -> Printf.sprintf "Paint(%d)" (0x80 lor (t land 0x7f))
  | _ -> "Counter"

let generate ?(tenants = 3) ~seed ~(leak : leak) () =
  if tenants < 2 then invalid_arg "Scenario.generate: need >= 2 tenants";
  let st = Random.State.make [| 0x7090; seed |] in
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "// generated multi-tenant scenario (seed %d)\n" seed;
  pr "topology {\n";
  (* Tenant ingress pipelines. *)
  for t = 1 to tenants do
    let deco =
      if Random.State.bool st then
        Printf.sprintf " -> %s" (decoration st t)
      else ""
    in
    pr "  pipeline tenant%d {\n" t;
    pr "    cl :: Classifier(12/0800, -);\n";
    pr "    chk :: CheckIPHeader;\n";
    pr "    cl[0] -> Strip(14) -> chk%s\n" deco;
    pr "          -> IPFilter(allow src %s, deny all);\n" (tenant_prefix t);
    pr "    chk[1] -> Discard;\n";
    pr "    cl[1] -> Discard;\n";
    pr "  }\n"
  done;
  (* The shared core: pairwise-isolation filter, then routing. The
     victim of a [`Dropped_deny] leak is a random tenant. *)
  let victim = 1 + Random.State.int st tenants in
  let denies =
    List.concat_map
      (fun t ->
        if leak = `Dropped_deny && t = victim then []
        else [ Printf.sprintf "deny dst %s" (tenant_prefix t) ])
      (List.init tenants (fun i -> i + 1))
  in
  let rules =
    match leak with
    | `Misordered -> "allow all" :: denies
    | _ -> denies @ [ "allow all" ]
  in
  pr "  pipeline core {\n";
  pr "    fw :: IPFilter(%s);\n" (String.concat ", " rules);
  pr "    rt :: StaticIPLookup(%s0.0.0.0/0 0);\n"
    (String.concat ""
       (List.init tenants (fun i ->
            Printf.sprintf "%s %d, " (tenant_prefix (i + 1)) (i + 1))));
  pr "    fw -> rt;\n";
  pr "  }\n";
  for t = 1 to tenants do
    pr "  tenant%d[0] -> core;\n" t
  done;
  for t = 1 to tenants do
    pr "  ingress t%d = tenant%d;\n" t t
  done;
  pr "  egress wan = core[0];\n";
  for t = 1 to tenants do
    pr "  egress lan%d = core[%d];\n" t t
  done;
  (* Declared properties: the full isolation matrix plus a liveness
     check per tenant (the control fabric must still forward). *)
  for i = 1 to tenants do
    pr "  reach t%d -> wan;\n" i;
    for j = 1 to tenants do
      if i <> j then pr "  isolate t%d -> lan%d;\n" i j
    done
  done;
  pr "}\n";
  let sc_source = Buffer.contents buf in
  let fab =
    match Config.parse_source sc_source with
    | Config.Fabric topo -> Fabric.of_topo topo
    | Config.Single _ -> assert false
  in
  let pairs =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j ->
            if i <> j then
              Some (Printf.sprintf "t%d" i, Printf.sprintf "lan%d" j)
            else None)
          (List.init tenants (fun k -> k + 1)))
      (List.init tenants (fun k -> k + 1))
  in
  let planted =
    match leak with
    | `None -> []
    | `Misordered -> pairs
    | `Dropped_deny ->
      List.filter
        (fun (_, b) -> b = Printf.sprintf "lan%d" victim)
        pairs
  in
  let safe = List.filter (fun p -> not (List.mem p planted)) pairs in
  {
    sc_source;
    sc_fab = fab;
    sc_tenants = tenants;
    sc_leak = leak;
    sc_planted = planted;
    sc_safe = safe;
  }

(* {1 Scoring} *)

type score = {
  detected : int;  (** planted pairs reported as breaches *)
  planted : int;
  confirmed : bool;  (** every reported breach flow replay-confirmed *)
  false_leaks : int;  (** safe pairs reported as breaches *)
  safe_proved : int;
  safe : int;
  unknowns : int;
}

(** Run the full isolation matrix of a scenario and score it against
    the planted ground truth. *)
let check ?(config = Query.default_config) sc =
  let rel = Relation.build ~config:config.Query.engine sc.sc_fab in
  let confirmed = ref true in
  let run_pair (a, b) =
    let r = Query.run ~config rel (Config.Isolate (a, b)) in
    (match r.Query.verdict with
    | Query.Fails (flows, _) ->
      if not (List.for_all (fun f -> f.Query.w_confirmed) flows) then
        confirmed := false
    | _ -> ());
    r.Query.verdict
  in
  let planted_results = List.map run_pair sc.sc_planted in
  let safe_results = List.map run_pair sc.sc_safe in
  let count p l = List.length (List.filter p l) in
  let is_fail = function Query.Fails _ -> true | _ -> false in
  let is_hold = function Query.Holds _ -> true | _ -> false in
  let is_unknown = function Query.Unknown _ -> true | _ -> false in
  {
    detected = count is_fail planted_results;
    planted = List.length sc.sc_planted;
    confirmed = !confirmed;
    false_leaks = count is_fail safe_results;
    safe_proved = count is_hold safe_results;
    safe = List.length sc.sc_safe;
    unknowns =
      count is_unknown planted_results + count is_unknown safe_results;
  }
