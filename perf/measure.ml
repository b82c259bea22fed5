(* Measurement plumbing: order statistics, the solver/certificate
   counters, spans recorded around calls into the libraries, and the
   forked child every operation runs in. *)

module Solver = Vdp_smt.Solver

let now = Unix.gettimeofday

(* {1 Order statistics} *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so spreads printed here match the
   ones computed over the same values elsewhere. *)
let quartiles xs =
  match sorted xs with
  | [] -> (nan, nan, nan)
  | [ x ] -> (x, x, x)
  | s ->
    let d = Array.of_list s in
    let ld = Array.length d in
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

(* {1 Solver and certificate counters}

   [read] is the only place the benchmark looks at [Solver.stats]; the
   certificate counters ride in the same record (the collector bumps
   them there). When the libraries grow their own metrics layer, this
   function is what changes. *)

type counters = {
  queries : int;
  folded : int;
  interval : int;
  cache_hits : int;
  cache_misses : int;
  gate_hits : int;
  gate_misses : int;
  sat_clauses : int;
  preprocess_s : float;
  blast_s : float;
  sat_s : float;
  cert_solve_s : float;
  cert_check_s : float;
  cert_drat : int;
  cert_pcache_hits : int;
  cert_proof_clauses : int;
}

let zero =
  {
    queries = 0;
    folded = 0;
    interval = 0;
    cache_hits = 0;
    cache_misses = 0;
    gate_hits = 0;
    gate_misses = 0;
    sat_clauses = 0;
    preprocess_s = 0.;
    blast_s = 0.;
    sat_s = 0.;
    cert_solve_s = 0.;
    cert_check_s = 0.;
    cert_drat = 0;
    cert_pcache_hits = 0;
    cert_proof_clauses = 0;
  }

let read () =
  let s = Solver.stats in
  {
    queries = s.Solver.calls;
    folded = s.Solver.folded;
    interval = s.Solver.interval_refutations;
    cache_hits = s.Solver.cache_hits;
    cache_misses = s.Solver.cache_misses;
    gate_hits = s.Solver.gate_hits;
    gate_misses = s.Solver.gate_misses;
    sat_clauses = s.Solver.sat_clauses;
    preprocess_s = s.Solver.preprocess_time;
    blast_s = s.Solver.blast_time;
    sat_s = s.Solver.sat_time;
    cert_solve_s = s.Solver.cert_solve_time;
    cert_check_s = s.Solver.cert_check_time;
    cert_drat = s.Solver.cert_drat;
    cert_pcache_hits = s.Solver.cert_pcache_hits;
    cert_proof_clauses = s.Solver.cert_proof_clauses;
  }

let combine fi ff a b =
  {
    queries = fi a.queries b.queries;
    folded = fi a.folded b.folded;
    interval = fi a.interval b.interval;
    cache_hits = fi a.cache_hits b.cache_hits;
    cache_misses = fi a.cache_misses b.cache_misses;
    gate_hits = fi a.gate_hits b.gate_hits;
    gate_misses = fi a.gate_misses b.gate_misses;
    sat_clauses = fi a.sat_clauses b.sat_clauses;
    preprocess_s = ff a.preprocess_s b.preprocess_s;
    blast_s = ff a.blast_s b.blast_s;
    sat_s = ff a.sat_s b.sat_s;
    cert_solve_s = ff a.cert_solve_s b.cert_solve_s;
    cert_check_s = ff a.cert_check_s b.cert_check_s;
    cert_drat = fi a.cert_drat b.cert_drat;
    cert_pcache_hits = fi a.cert_pcache_hits b.cert_pcache_hits;
    cert_proof_clauses = fi a.cert_proof_clauses b.cert_proof_clauses;
  }

let diff = combine ( - ) ( -. )
let add = combine ( + ) ( +. )

(* Seconds the solver and the certificate checker account for. *)
let solver_s c = c.preprocess_s +. c.blast_s +. c.sat_s
let cert_s c = c.cert_solve_s +. c.cert_check_s

(* {1 Spans}

   Recorded only in traced runs, around the benchmark's own calls into
   a layer's public functions. Each span keeps the counter delta over
   its interval, so solver time can be split between the layers that
   called it. *)

type span = {
  name : string;
  t0 : float;
  t1 : float;
  depth : int;  (** 0 for a top-level span of the operation *)
  c : counters;
}

let tracing = ref false
let recorded : span list ref = ref []
let depth = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let d = !depth in
    let c0 = read () and t0 = now () in
    depth := d + 1;
    let r = Fun.protect ~finally:(fun () -> depth := d) f in
    let t1 = now () in
    recorded := { name; t0; t1; depth = d; c = diff (read ()) c0 } :: !recorded;
    r
  end

let take_spans () =
  let s = List.rev !recorded in
  recorded := [];
  s

(* {1 Host speed}

   The benchmark shares its host with other tenants, whose load slows
   everything running on it by up to 2x, in spells lasting from seconds
   to minutes. [slowdown] tells how much slower the host runs now than
   at its fastest. It times three fixed loops that share no code with
   the libraries, one per kind of work the libraries do:
   - dependent loads cycling through 128 KB, within the core's caches;
   - dependent loads landing on 40 k scattered cache lines of a 16 MB
     array, beyond them;
   - allocation of short-lived pairs, which runs the minor collector
     and streams through the minor heap. Nothing survives, so the
     probe's cost does not depend on how large the program's heap is.
   Each loop's time is divided by its nominal time, and the result is
   the geometric mean of the three ratios. The nominal times are the
   fastest 1 % of timings on the 2-vCPU, 2.1 GHz host the benchmark was
   defined on. The walk arrays live outside the OCaml heap, so the GC
   neither scans them nor counts them. *)

let walk_array bits next =
  let n = 1 lsl bits in
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    a.{i} <- next i land (n - 1)
  done;
  a

let in_cache = walk_array 16 (fun i -> (i * 40503) + 13)
let in_memory = walk_array 21 (fun i -> (i * 1103515245) + 12345)

(* Five times the median of five timed runs of [chunk], so that one
   preemption does not read as a slow host. *)
let timed chunk =
  let once () =
    let t0 = now () in
    chunk ();
    now () -. t0
  in
  5. *. median (List.init 5 (fun _ -> once ()))

let walk (a : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) steps () =
  let acc = ref 0 and j = ref 0 in
  for _ = 1 to steps do
    j := a.{!j};
    acc := (!acc + (!j * 31)) land 0xffffff
  done;
  ignore (Sys.opaque_identity !acc)

let allocate steps () =
  let acc = ref 0 in
  for i = 1 to steps do
    let pair = Sys.opaque_identity (i, i + 1) in
    acc := (!acc + fst pair) land 0xffffff
  done;
  ignore (Sys.opaque_identity !acc)

let slowdown () =
  Float.cbrt
    (timed (walk in_cache 800_000) /. 0.0217
    *. (timed (walk in_memory 40_000) /. 0.00543)
    *. (timed (allocate 2_000_000) /. 0.0100))

(* [f ()] with its start, its wall time and the mean slowdown measured
   just before and just after it. *)
let against_slowdown f =
  let s0 = slowdown () in
  let t0 = now () in
  let x = f () in
  let wall = now () -. t0 in
  let s1 = slowdown () in
  (x, t0, wall, (s0 +. s1) /. 2.)

(* {1 Operations in a forked child}

   Every timed operation runs in a child forked from the set-up
   process, so each starts from the same heap, the same empty
   verifier caches and the same hash-cons table: no operation pays for
   garbage or warms caches for another, and the loop's length cannot
   shift the numbers. The child marshals its result back over a pipe;
   the parent waits for it (closed loop) and kills it past [timeout]. *)

type 'a child = Done of 'a | Failed of string

let in_child ~timeout (f : unit -> 'a) : 'a child =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let r = try Done (f ()) with e -> Failed (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr wr in
    (try
       Marshal.to_channel oc (r : 'a child) [];
       close_out oc
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let deadline = now () +. timeout in
    let rec wait_readable () =
      let left = deadline -. now () in
      if left <= 0. then false
      else
        match Unix.select [ rd ] [] [] left with
        | [], _, _ -> wait_readable ()
        | _ -> true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable ()
    in
    let r =
      if wait_readable () then begin
        let ic = Unix.in_channel_of_descr rd in
        let r =
          match (Marshal.from_channel ic : 'a child) with
          | r -> r
          | exception End_of_file -> Failed "child exited without a result"
        in
        close_in ic;
        r
      end
      else begin
        Unix.kill pid Sys.sigkill;
        Unix.close rd;
        Failed (Printf.sprintf "timed out after %.0fs" timeout)
      end
    in
    let rec reap () =
      match Unix.waitpid [] pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    in
    reap ();
    r
