(* From samples to metrics: the end-to-end metrics of an untraced run,
   the per-layer metrics of a traced one, the per-property figures
   printed beside them, and the Chrome trace-event export. *)

module W = Workloads

(* One execution of one operation, as its child reports it. *)
type sample = {
  op : W.op;
  t0 : float;  (** absolute start of the timed part *)
  wall : float;  (** seconds in the timed part; nan if the child failed *)
  slowdown : float;  (** mean {!Measure.slowdown} around it *)
  check : W.check;
  counters : Measure.counters;  (** solver/certificate delta over the timed part *)
  spans : Measure.span list;
  top_heap_words : int;
}

(* {1 Metric names}

   BENCHMARK.json is the one list of metrics: a run reports exactly
   the ones it declares under [end_to_end] (untraced) or [per_layer]
   (traced), with the declared units, in the declared order. *)

let declared ~trace =
  let key = if trace then "per_layer" else "end_to_end" in
  List.map
    (fun m ->
      match (Json.member_str "name" m, Json.member_str "unit" m) with
      | Some name, Some unit -> (name, unit)
      | _ -> failwith ("BENCHMARK.json: a " ^ key ^ " entry lacks a name or unit"))
    (Json.member_list key (Json.read_file "BENCHMARK.json"))

(* {1 Aggregation} *)

let ok_samples samples = List.filter (fun s -> Float.is_finite s.wall) samples

(* Operations in cycle order, each with its samples. *)
let by_op samples =
  let ops = ref [] in
  List.iter
    (fun s -> if not (List.memq s.op !ops) then ops := s.op :: !ops)
    samples;
  List.rev_map (fun op -> (op, List.filter (fun s -> s.op == op) samples)) !ops

let walls samples = List.map (fun s -> s.wall) (ok_samples samples)

(* A sample's wall time at the host's full speed ({!Measure.slowdown});
   an operation's time is the median of these. *)
let scaled s = s.wall /. s.slowdown
let time samples = Measure.median (List.map scaled (ok_samples samples))

let ratio a b = if b = 0. then 0. else a /. b

let end_to_end_values ~setups samples =
  let ops = by_op samples in
  let times = List.map (fun (op, mine) -> (op, time mine)) ops in
  let heap =
    List.fold_left
      (fun acc (_, mine) ->
        max acc
          (Measure.median
             (List.map (fun s -> float_of_int s.top_heap_words) (ok_samples mine))))
      0. ops
  in
  [
    ("pass_s", List.fold_left (fun acc (_, t) -> acc +. t) 0. times);
    ( "op_gmean_us",
      Measure.geomean
        (List.map (fun ((op : W.op), t) -> t *. 1e6 /. float_of_int op.W.units) times) );
    ("setup_s", Measure.median setups);
    ("peak_heap_mb", heap *. float_of_int (Sys.word_size / 8) /. 1e6);
  ]

(* Per-property figures: seconds to every verdict of a group, or
   packets per second for a forwarded pipeline. *)
let groups samples =
  let acc = ref [] in
  List.iter
    (fun ((op : W.op), mine) ->
      let t = time mine in
      let v, unit =
        if String.length op.W.group > 4 && String.sub op.W.group 0 4 = "pps."
        then (float_of_int op.W.units /. t, "1/s")
        else (t, "s")
      in
      match List.assoc_opt op.W.group !acc with
      | Some (v0, u) ->
        acc := (op.W.group, (v0 +. v, u)) :: List.remove_assoc op.W.group !acc
      | None -> acc := (op.W.group, (v, unit)) :: !acc)
    (by_op samples);
  List.rev !acc

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let dur (s : Measure.span) = s.Measure.t1 -. s.Measure.t0

let role r samples = List.filter (fun s -> s.op.W.role = r) samples

(* The facts of the measured operations and the prefix-chain legs;
   the other legs repeat a measured operation's. *)
let facts samples =
  List.concat_map
    (fun s -> s.check.W.facts)
    (role W.Measured samples @ role W.Prefix samples)

let fact_sum facts name =
  List.fold_left (fun a (n, x) -> if n = name then a +. x else a) 0. facts

(* Facts that feed a computed metric rather than one of their own. *)
let inputs = [ "witness.confirmed" ]

(* The declared metrics' values. A value [computed] comes first;
   otherwise a traced run reports the sum of the facts of that name,
   0 for a layer the workload does not use. The second list names each
   declared end-to-end metric nothing computes and each fact no metric
   declares, so a renamed element or metric cannot vanish silently. *)
let resolve ~trace ~computed samples =
  let declared = declared ~trace in
  let facts = if trace then facts samples else [] in
  let values, missing =
    List.partition_map
      (fun (name, unit) ->
        match List.assoc_opt name computed with
        | Some v -> Left (name, v, unit)
        | None when trace -> Left (name, fact_sum facts name, unit)
        | None -> Right ("declared metric without a value: " ^ name))
      declared
  in
  let undeclared =
    List.filter_map
      (fun n ->
        if List.mem_assoc n declared || List.mem n inputs then None
        else Some ("fact without a declared metric: " ^ n))
      (List.sort_uniq compare (List.map fst facts))
  in
  (values, missing @ undeclared)

(* Per-layer values computed from spans and counters; the rest of the
   per-layer metrics are facts (see {!resolve}). *)
let per_layer_values ~setup_wall ~setup_spans samples =
  let role r = role r samples in
  let measured = role W.Measured in
  let spans_named name ss =
    List.concat_map
      (fun s -> List.filter (fun (sp : Measure.span) -> sp.Measure.name = name) s.spans)
      ss
  in
  let setup_sum name =
    sum dur (List.filter (fun (sp : Measure.span) -> sp.Measure.name = name) setup_spans)
  in
  let self sp = dur sp -. Measure.solver_s sp.Measure.c -. Measure.cert_s sp.Measure.c in
  let fact = fact_sum (facts samples) in
  let c =
    List.fold_left (fun acc s -> Measure.add acc s.counters) Measure.zero measured
  in
  let fi = float_of_int in
  let certified_wall = sum scaled (List.filter (fun s -> s.op.W.certified) measured) in
  let plain_wall = sum scaled (role W.Plain) in
  let enumerate = spans_named "topo.enumerate" (role W.Enumerate) in
  (* Time of the measured operations and the set-up that no layer's
     span covers; the extra legs are attribution experiments, not part
     of the workload. *)
  let top sp = sp.Measure.depth = 0 in
  let unattributed =
    sum (fun s -> s.wall -. sum dur (List.filter top s.spans)) (ok_samples measured)
    +. setup_wall -. sum dur (List.filter top setup_spans)
  in
  [
    ("click.parse_s", setup_sum "click.parse");
    ("ir.compile_s", setup_sum "ir.compile");
    ("topo.relation_build_s", setup_sum "topo.relation_build");
    ("verif.step1_s", sum dur (spans_named "verif.step1" measured));
    ("verif.step2_s", sum dur (spans_named "verif.step2" measured));
    ("verif.step2_self_s", sum self (spans_named "verif.step2" measured));
    ("smt.queries", fi c.Measure.queries);
    ("smt.folded_ratio", ratio (fi c.Measure.folded) (fi c.Measure.queries));
    ("smt.interval_ratio", ratio (fi c.Measure.interval) (fi c.Measure.queries));
    ( "smt.cache_hit_ratio",
      ratio (fi c.Measure.cache_hits)
        (fi (c.Measure.cache_hits + c.Measure.cache_misses)) );
    ("smt.preprocess_s", c.Measure.preprocess_s);
    ("smt.blast_s", c.Measure.blast_s);
    ("smt.sat_s", c.Measure.sat_s);
    ("smt.sat_clauses", fi c.Measure.sat_clauses);
    ( "smt.gate_hit_ratio",
      ratio (fi c.Measure.gate_hits)
        (fi (c.Measure.gate_hits + c.Measure.gate_misses)) );
    ("cert.s", if plain_wall = 0. then 0. else certified_wall -. plain_wall);
    ("cert.overhead_ratio", ratio certified_wall plain_wall);
    ("cert.solve_s", c.Measure.cert_solve_s);
    ("cert.check_s", c.Measure.cert_check_s);
    ("cert.drat", fi c.Measure.cert_drat);
    ("cert.pcache_hits", fi c.Measure.cert_pcache_hits);
    ("cert.proof_clauses", fi c.Measure.cert_proof_clauses);
    ( "witness.confirmed_ratio",
      ratio (fact "witness.confirmed") (fact "witness.replays") );
    ("topo.enumerate_s", sum dur enumerate);
    (* A query's own time: its span less the solver and certificate
       time inside it and less the enumeration the legs measured
       (itself less any solver time, already subtracted once). *)
    ( "topo.query_self_s",
      sum self (spans_named "topo.query" measured) -. sum self enumerate );
    ("unattributed_s", unattributed);
  ]
  @ List.filter_map
      (fun ((op : W.op), mine) ->
        match String.split_on_char '.' op.W.group with
        | [ "pps"; pl ] ->
          Some ("runtime.ns_per_pkt." ^ pl, time mine *. 1e9 /. float_of_int op.W.units)
        | _ -> None)
      (by_op measured)

(* {1 Chrome trace-event export}

   Complete ("X") events on one track, in microseconds: the set-up
   spans, then each operation with the spans recorded inside it. Span
   arguments carry the solver and certificate seconds spent within. *)

let trace_json ~workload ~provenance ~setup_spans samples =
  let us t = Json.Num (Float.round (t *. 1e6)) in
  let event ?(args = []) name t0 t1 =
    Json.Obj
      [
        ("name", Json.Str name);
        ("ph", Json.Str "X");
        ("ts", us t0);
        ("dur", us (t1 -. t0));
        ("pid", Json.int 1);
        ("tid", Json.int 1);
        ("args", Json.Obj args);
      ]
  in
  let span_event (sp : Measure.span) =
    event sp.Measure.name sp.Measure.t0 sp.Measure.t1
      ~args:
        [
          ("solver_s", Json.Num (Measure.solver_s sp.Measure.c));
          ("cert_s", Json.Num (Measure.cert_s sp.Measure.c));
          ("queries", Json.int sp.Measure.c.Measure.queries);
        ]
  in
  let op_events s =
    if not (Float.is_finite s.wall) then []
    else
      event s.op.W.name s.t0 (s.t0 +. s.wall)
        ~args:[ ("ok", Json.Bool s.check.W.ok); ("note", Json.Str s.check.W.note) ]
      :: List.map span_event s.spans
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (Json.Obj
             [
               ("name", Json.Str "process_name");
               ("ph", Json.Str "M");
               ("pid", Json.int 1);
               ("args", Json.Obj [ ("name", Json.Str workload) ]);
             ]
          :: List.map span_event setup_spans
          @ List.concat_map op_events samples) );
      ("displayTimeUnit", Json.Str "ms");
      ("otherData", provenance);
    ]
