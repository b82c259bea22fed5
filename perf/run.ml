(* The repository benchmark. See perf/README.md for the workloads, the
   metrics and how to compare two commits.

     sh perf/run.sh --workload forward --seed 3 --seconds 30 --trace 0
     sh perf/run.sh --seed 1 --runs 2 --trace 1 --out perf/latest.json
     sh perf/run.sh --smoke
     sh perf/run.sh compare parent.json change.json

   One workload per process, one OCaml domain, one client: every
   operation runs in a child forked after set-up and the next starts
   when it has returned. The last line of a workload run is its result
   as JSON. *)

module W = Workloads

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
  smoke : bool;
  runs : int;
}

let usage =
  "usage: run.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
  \               [--out FILE] [--runs N] [--smoke]\n\
  \       run.exe compare A.json B.json\n"

let die msg =
  prerr_string (msg ^ "\n" ^ usage);
  exit 2

let parse_opts args =
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with workload = Some v } rest
    | "--seed" :: v :: rest -> go { o with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { o with seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { o with trace = v = "1" } rest
    | "--out" :: v :: rest -> go { o with out = Some v } rest
    | "--runs" :: v :: rest -> go { o with runs = int_of_string v } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | a :: _ -> die ("unknown argument " ^ a)
  in
  try
    go
      {
        workload = None;
        seed = 1;
        seconds = 30.;
        trace = false;
        out = None;
        smoke = false;
        runs = 1;
      }
      args
  with Failure _ -> die "bad number"

(* {1 Provenance} *)

let read_text path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      String.trim (really_input_string ic (in_channel_length ic)))

(* The checked-out commit, read from .git without running git; a
   source tree that is not a repository reports "unknown". *)
let commit () =
  try
    let head = read_text ".git/HEAD" in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then begin
      let r = String.sub head 5 (String.length head - 5) in
      if Sys.file_exists (".git/" ^ r) then read_text (".git/" ^ r)
      else
        let line =
          List.find
            (fun l ->
              let n = String.length l and m = String.length r in
              n > m && String.sub l (n - m) m = r)
            (String.split_on_char '\n' (read_text ".git/packed-refs"))
        in
        List.hd (String.split_on_char ' ' line)
    end
    else head
  with _ -> "unknown"

(* Processors this process may run on, as the nproc utility counts
   them; null when it cannot be run. *)
let nproc () =
  try
    let ic = Unix.open_process_args_in "nproc" [| "nproc" |] in
    let out = In_channel.input_all ic in
    ignore (Unix.close_process_in ic);
    match int_of_string_opt (String.trim out) with
    | Some n -> Json.int n
    | None -> Json.Null
  with Unix.Unix_error _ -> Json.Null

let provenance o =
  Json.Obj
    [
      ("commit", Json.Str (commit ()));
      ("seed", Json.int o.seed);
      ("seconds", Json.Num o.seconds);
      ("smoke", Json.Bool o.smoke);
      ("trace", Json.Bool o.trace);
      ("ocaml", Json.Str Sys.ocaml_version);
      ("nproc", nproc ());
      ("recommended_domain_count", Json.int (Domain.recommended_domain_count ()));
      ("domains_used", Json.int 1);
    ]

(* {1 One workload} *)

(* Far above any operation's time; a child past it is killed and its
   operation counted as failed. *)
let child_timeout = 150.

let execute ~traced (op : W.op) : Report.sample =
  let result =
    Measure.in_child ~timeout:child_timeout (fun () ->
        Measure.tracing := traced;
        let c0 = Measure.read () in
        let finish, t0, wall, slowdown = Measure.against_slowdown op.W.exec in
        let counters = Measure.diff (Measure.read ()) c0 in
        let check = finish () in
        ( t0,
          wall,
          slowdown,
          check,
          counters,
          Measure.take_spans (),
          (Gc.quick_stat ()).Gc.top_heap_words ))
  in
  match result with
  | Measure.Done (t0, wall, slowdown, check, counters, spans, top_heap_words) ->
    { Report.op; t0; wall; slowdown; check; counters; spans; top_heap_words }
  | Measure.Failed msg ->
    {
      Report.op;
      t0 = nan;
      wall = nan;
      slowdown = nan;
      check = W.check false msg;
      counters = Measure.zero;
      spans = [];
      top_heap_words = 0;
    }

(* Untraced: cycles over the measured operations, each complete cycle
   followed by a set-up timed again in a child and scaled like an
   operation. The first cycle always runs whole; after it, an
   operation runs only if its previous execution, repeated now, would
   end before [seconds] are up. The cycle where one would not is the
   last: it runs the operations that still fit and skips the others.
   So a run ends within its time and uses the end of it. Traced: one
   cycle over the operations and every extra leg. Returns the samples,
   the set-up times, checks for set-up children that failed, and the
   number of complete cycles. *)
let measure o (p : W.prepared) =
  let retime () =
    let times, _, _, slowdown = Measure.against_slowdown p.W.retime in
    List.map (fun t -> t /. slowdown) times
  in
  if o.trace then (List.map (execute ~traced:true) (p.W.ops @ p.W.legs), [], [], 1)
  else begin
    let deadline = Measure.now () +. o.seconds in
    let took = Hashtbl.create 8 in
    let rec cycle acc complete = function
      | [] -> (acc, complete)
      | (op : W.op) :: rest ->
        let t0 = Measure.now () in
        match Hashtbl.find_opt took op.W.name with
        | Some d when t0 +. d > deadline -> cycle acc false rest
        | _ ->
          let s = execute ~traced:false op in
          Hashtbl.replace took op.W.name (Measure.now () -. t0);
          cycle (s :: acc) complete rest
    in
    let rec loop acc setups bad n =
      match cycle acc true p.W.ops with
      | acc, false -> (List.rev acc, setups, bad, n)
      | acc, true ->
        let setups, bad =
          match Measure.in_child ~timeout:child_timeout retime with
          | Measure.Done ts -> (ts @ setups, bad)
          | Measure.Failed msg -> (setups, W.check false ("set-up: " ^ msg) :: bad)
        in
        if o.smoke then (List.rev acc, setups, bad, n + 1)
        else loop acc setups bad (n + 1)
    in
    loop [] [] [] 0
  end

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let append_run path record =
  let runs =
    if Sys.file_exists path then
      Json.member_list "runs" (Json.read_file path)
    else []
  in
  Json.write_file path (Json.Obj [ ("runs", Json.Arr (runs @ [ record ])) ])

let run_workload o (w : W.t) =
  let p = w.W.prepare ~smoke:o.smoke ~seed:o.seed ~traced:o.trace in
  Gc.compact ();
  let samples, setups, setup_failures, cycles = measure o p in
  let measured =
    List.filter (fun (s : Report.sample) -> s.Report.op.W.role = W.Measured) samples
  in
  let computed =
    if o.trace then
      Report.per_layer_values ~setup_wall:p.W.setup_wall ~setup_spans:p.W.setup_spans
        samples
    else Report.end_to_end_values ~setups measured
  in
  let values, unnamed = Report.resolve ~trace:o.trace ~computed samples in
  let checks =
    p.W.pre @ setup_failures
    @ List.map (fun (s : Report.sample) -> s.Report.check) samples
    @ List.map (W.check false) unnamed
  in
  let attempted = List.fold_left (fun a (c : W.check) -> a + c.W.attempted) 0 checks in
  let failed = List.fold_left (fun a (c : W.check) -> a + c.W.failed) 0 checks in
  let failures =
    List.filter_map (fun (c : W.check) -> if c.W.ok then None else Some c.W.note) checks
  in
  let provenance = provenance o in
  (* Human-readable report. *)
  Printf.printf "%s (seed %d, %s, %d complete cycle%s, %d set-ups)\n" w.W.name o.seed
    (if o.trace then "traced" else "untraced")
    cycles (if cycles = 1 then "" else "s") (List.length setups);
  Printf.printf "  provenance %s\n" (Json.to_string provenance);
  List.iter
    (fun (c : W.check) ->
      Printf.printf "  check  %-44s %s\n" c.W.note (if c.W.ok then "ok" else "FAILED"))
    p.W.pre;
  let op_rows =
    List.map
      (fun ((op : W.op), mine) ->
        let walls = Report.walls mine in
        let q1, med, q3 = Measure.quartiles walls in
        let time = Report.time mine in
        let note =
          match List.rev mine with
          | (s : Report.sample) :: _ -> s.Report.check.W.note
          | [] -> ""
        in
        Printf.printf
          "  op     %-24s n=%-3d %9.4f s scaled; raw median %.4f [q1 %.4f, q3 %.4f]  %s\n"
          op.W.name (List.length walls) time med q1 q3 note;
        Json.Obj
          [
            ("name", Json.Str op.W.name);
            ("group", Json.Str op.W.group);
            ( "role",
              Json.Str
                (match op.W.role with
                | W.Measured -> "measured"
                | W.Plain -> "plain"
                | W.Enumerate -> "enumerate"
                | W.Prefix -> "prefix") );
            ("units", Json.int op.W.units);
            ("time_s", Json.Num time);
            ("samples_s", Json.Arr (List.map (fun w -> Json.Num w) walls));
            ( "slowdowns",
              Json.Arr
                (List.map (fun (s : Report.sample) -> Json.Num s.Report.slowdown)
                   (Report.ok_samples mine)) );
            ("median_s", Json.Num med);
            ("q1_s", Json.Num q1);
            ("q3_s", Json.Num q3);
          ])
      (Report.by_op samples)
  in
  let groups = Report.groups measured in
  List.iter (fun (g, (v, u)) -> Printf.printf "  group  %-24s %.6g %s\n" g v u) groups;
  List.iter (fun (n, v, u) -> Printf.printf "  metric %-32s %.6g %s\n" n v u) values;
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) failures;
  let metrics =
    Json.Obj
      (List.map
         (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
         values)
  in
  if o.trace then begin
    let path = Printf.sprintf "perf/out/trace-%s-seed%d.json" w.W.name o.seed in
    mkdir_p (Filename.dirname path);
    Json.write_file path
      (Report.trace_json ~workload:w.W.name ~provenance
         ~setup_spans:p.W.setup_spans samples);
    Printf.printf "  trace  %s\n" path
  end;
  (match o.out with
  | Some path ->
    append_run path
      (Json.Obj
         [
           ("workload", Json.Str w.W.name);
           ("trace", Json.Bool o.trace);
           ("provenance", provenance);
           ("correct", Json.Bool (failed = 0));
           ("attempted", Json.int attempted);
           ("failed", Json.int failed);
           ("metrics", metrics);
           ( "samples",
             Json.Obj
               [
                 ("setups", Json.int (List.length setups));
                 ("cycles", Json.int cycles);
               ] );
           ("ops", Json.Arr op_rows);
           ( "groups",
             Json.Obj
               (List.map
                  (fun (g, (v, u)) ->
                    (g, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
                  groups) );
           ("failures", Json.Arr (List.map (fun f -> Json.Str f) failures));
         ])
  | None -> ());
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.int attempted);
            ("failed", Json.int failed);
            ("metrics", metrics);
          ]));
  if failed = 0 then 0 else 1

(* {1 Every workload, each in a fresh process} *)

(* Traced minus untraced time of the same measured operations, each
   scaled as in the end-to-end metrics. *)
let tracing_overhead path =
  let doc = Json.read_file path in
  let runs = Json.member_list "runs" doc in
  let op_times r =
    List.filter_map
      (fun op ->
        match
          (Json.member_str "name" op, Json.member "role" op, Json.member_num "time_s" op)
        with
        | Some n, Some (Json.Str "measured"), Some m -> Some (n, m)
        | _ -> None)
      (Json.member_list "ops" r)
  in
  let rows =
    List.filter_map
      (fun (w : W.t) ->
        let mine traced =
          List.filter
            (fun r ->
              Json.member_str "workload" r = Some w.W.name
              && Json.member "trace" r = Some (Json.Bool traced))
            runs
        in
        match (mine true, mine false) with
        | traced :: _, (_ :: _ as untraced) ->
          let t = op_times traced in
          let u = List.map op_times untraced in
          let traced_s = List.fold_left (fun a (_, m) -> a +. m) 0. t in
          let untraced_s =
            List.fold_left
              (fun a (n, _) ->
                a +. Measure.median (List.filter_map (List.assoc_opt n) u))
              0. t
          in
          Some
            ( w.W.name,
              Json.Obj
                [
                  ("traced_s", Json.Num traced_s);
                  ("untraced_s", Json.Num untraced_s);
                  ("overhead_s", Json.Num (traced_s -. untraced_s));
                ] )
        | _ -> None)
      W.all
  in
  Json.write_file path
    (Json.Obj [ ("runs", Json.Arr runs); ("tracing_overhead", Json.Obj rows) ])

(* Each workload in a child process of its own, untraced [runs] times
   and then traced once when asked; smoke runs do both and print a
   workload's report only when it failed. *)
let run_all o =
  let exe = Sys.executable_name in
  let failures = ref [] in
  List.iter
    (fun (w : W.t) ->
      let traced =
        List.init o.runs (fun _ -> false) @ if o.trace || o.smoke then [ true ] else []
      in
      List.iter
        (fun traced ->
          let args =
            [ exe; "--workload"; w.W.name; "--seed"; string_of_int o.seed;
              "--seconds"; Printf.sprintf "%g" o.seconds;
              "--trace"; (if traced then "1" else "0") ]
            @ (if o.smoke then [ "--smoke" ] else [])
            @ match o.out with Some f -> [ "--out"; f ] | None -> []
          in
          let label = w.W.name ^ if traced then " (traced)" else "" in
          flush_all ();
          let ok =
            if o.smoke then begin
              let ic = Unix.open_process_args_in exe (Array.of_list args) in
              let report = In_channel.input_all ic in
              let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
              if ok then Printf.printf "%s: ok\n" label else print_string report;
              ok
            end
            else
              let pid =
                Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stdout
                  Unix.stderr
              in
              snd (Unix.waitpid [] pid) = Unix.WEXITED 0
          in
          if not ok then failures := label :: !failures)
        traced)
    W.all;
  (match o.out with Some f when o.trace -> tracing_overhead f | _ -> ());
  match !failures with
  | [] ->
    print_endline "every workload ran and every answer checked";
    0
  | fs ->
    Printf.printf "FAILED: %s\n" (String.concat ", " (List.rev fs));
    1

let () =
  let code =
    match List.tl (Array.to_list Sys.argv) with
    | [ "compare"; a; b ] -> Compare.run a b
    | args -> (
      let o = parse_opts args in
      match o.workload with
      | None -> run_all o
      | Some name -> (
        match List.find_opt (fun (w : W.t) -> w.W.name = name) W.all with
        | Some w -> run_workload o w
        | None -> die ("unknown workload " ^ name)))
  in
  exit code
