(* [run.exe compare A B]: decide, per workload and metric, whether the
   runs in B (a change) differ from the runs in A (its parent), with the
   bounds BENCHMARK.json fixes.

   The metrics are the end-to-end ones and each per-property figure the
   records carry (crash_s, pps.router, ...). A figure is a part of
   [pass_s] and shares its bound, so a regression in one operation is
   not averaged away in the sum.

   A gain needs at least ten pairs, B better in nine tenths of them
   (ties count for neither side) and medians further apart than A's
   interquartile spread. A regression is a median worse than A's by
   more than the metric's bound. Where A's own spread exceeds the
   bound the metric is unresolved, unless every run of B beats every
   run of A. Pairs are formed in file order, so runs should be made
   alternating between the two commits. A workload where any run of B
   got a wrong answer fails outright, and none of its rows is a gain. *)

type metric = { name : string; unit : string; lower_better : bool; bound : float }

let end_to_end benchmark =
  List.filter_map
    (fun m ->
      match
        ( Json.member_str "name" m,
          Json.member_str "unit" m,
          Json.member_str "better" m,
          Json.member_num "bound" m )
      with
      | Some name, Some unit, Some better, Some bound ->
        Some { name; unit; lower_better = better = "lower"; bound }
      | _ -> None)
    (Json.member_list "end_to_end" benchmark)

(* Untraced run records of [workload], in file order. *)
let runs_of doc workload =
  List.filter
    (fun r ->
      Json.member_str "workload" r = Some workload
      && Json.member "trace" r <> Some (Json.Bool true))
    (Json.member_list "runs" doc)

let value table name = Option.bind (Json.member name table) (Json.member_num "value")

let metric_value m r =
  List.find_map
    (fun table -> Option.bind (Json.member table r) (fun t -> value t m.name))
    [ "metrics"; "groups" ]

(* The per-property figures every run of both sides recorded. *)
let figures ~pass ra rb =
  let names r =
    match Json.member "groups" r with
    | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun u -> (k, u)) (Json.member_str "unit" v))
        kvs
    | _ -> []
  in
  match List.map names (ra @ rb) with
  | [] -> []
  | first :: rest ->
    List.filter_map
      (fun (name, unit) ->
        if List.for_all (List.mem (name, unit)) rest then
          Some { name; unit; lower_better = unit <> "1/s"; bound = pass.bound }
        else None)
      first

let count key rs =
  List.fold_left
    (fun a r -> a + int_of_float (Option.value ~default:0. (Json.member_num key r)))
    0 rs

type verdict = Gain | Within | Unresolved | Regression

let verdict_name = function
  | Gain -> "gain"
  | Within -> "within bound"
  | Unresolved -> "unresolved"
  | Regression -> "REGRESSION"

let judge m xs ys =
  let better y x = if m.lower_better then y < x else y > x in
  let pairs = min (List.length xs) (List.length ys) in
  let rec wins xs ys =
    match (xs, ys) with
    | x :: xs, y :: ys -> (if better y x then 1 else 0) + wins xs ys
    | _ -> 0
  in
  let wins = wins xs ys in
  let q1a, ma, q3a = Measure.quartiles xs in
  let _, mb, _ = Measure.quartiles ys in
  let spread = (q3a -. q1a) /. ma and change = (mb -. ma) /. ma in
  let worse = if m.lower_better then change else -.change in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) xs) ys in
  let verdict =
    if spread > m.bound && not all_better then Unresolved
    else if worse > m.bound then Regression
    else if
      pairs >= 10
      && wins * 10 >= 9 * pairs
      && Float.abs (mb -. ma) > q3a -. q1a
      && worse < 0.
    then Gain
    else Within
  in
  (verdict, pairs, wins, spread, change)

let run a b =
  let metrics = end_to_end (Json.read_file "BENCHMARK.json") in
  let pass = List.find (fun m -> m.name = "pass_s") metrics in
  let da = Json.read_file a and db = Json.read_file b in
  let bad = ref 0 in
  Printf.printf "%-16s %-21s %-5s %-34s %-34s %8s %8s %9s  %s\n" "workload" "metric"
    "unit" "A median [q1, q3]" "B median [q1, q3]" "A spread" "B vs A" "B wins"
    "verdict";
  List.iter
    (fun (w : Workloads.t) ->
      let ra = runs_of da w.Workloads.name and rb = runs_of db w.Workloads.name in
      if ra <> [] && rb <> [] then begin
        let failed =
          count "failed" rb > 0
          || List.exists (fun r -> Json.member "correct" r <> Some (Json.Bool true)) rb
        in
        if failed then begin
          incr bad;
          Printf.printf "%-16s %-21s %-5s %-34s %-34s %8s %8s %9s  %s\n" w.Workloads.name
            "failed" "count"
            (Printf.sprintf "%d of %d" (count "failed" ra) (count "attempted" ra))
            (Printf.sprintf "%d of %d" (count "failed" rb) (count "attempted" rb))
            "" "" "" "FAILED"
        end;
        List.iter
          (fun m ->
            let xs = List.filter_map (metric_value m) ra in
            let ys = List.filter_map (metric_value m) rb in
            if xs <> [] && ys <> [] then begin
              let v, pairs, wins, spread, change = judge m xs ys in
              let v = if failed && v = Gain then Within else v in
              if v = Regression then incr bad;
              let show vs =
                let q1, med, q3 = Measure.quartiles vs in
                Printf.sprintf "%.4g [%.4g, %.4g]" med q1 q3
              in
              Printf.printf "%-16s %-21s %-5s %-34s %-34s %7.2f%% %+7.2f%% %4d/%-4d  %s\n"
                w.Workloads.name m.name m.unit (show xs) (show ys)
                (100. *. spread) (100. *. change)
                wins pairs (verdict_name v)
            end)
          (metrics @ figures ~pass ra rb)
      end)
    Workloads.all;
  if !bad > 0 then 2 else 0
