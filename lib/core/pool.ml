(** A fixed pool of worker domains with a helping, deadlock-free work
    queue and per-run scheduler statistics.

    [create n] spawns [n - 1] domains; the caller participates as the
    n-th runner whenever it waits inside {!await} or {!map}. A pool of
    size 1 spawns nothing: {!spawn} runs the thunk inline and {!map}
    degrades to [Array.map] — the sequential fast path costs one branch.

    The scheduling discipline is {e helping}: {!spawn} enqueues a task
    and returns a future immediately; {!await} runs queued tasks while
    the awaited future is still pending instead of blocking. Tasks may
    therefore freely spawn subtasks (and call {!map}) from inside a
    running task — the construction that deadlocked the previous
    barrier-style pool. Deadlock-freedom argument: a runner only blocks
    when the queue is empty and its awaited future is {e running} on
    another runner; wait-for edges follow the spawn tree strictly
    downward (a runner awaits only futures of tasks it transitively
    spawned, or helps unrelated queued work), so there is no cycle.

    Guarantees:
    - {e deterministic result ordering} — [map pool f xs] returns
      results positionally, exactly like [Array.map f xs];
    - {e exception propagation} — a task's exception is stored in its
      future and re-raised (with backtrace) at {!await}; [map] awaits
      every element and re-raises the exception of the smallest failing
      index, so no task is abandoned mid-flight;
    - spawning the pool enters {!Vdp_smt.Par} parallel mode (shared
      SMT state becomes lock-guarded) and {!shutdown} leaves it.

    Statistics: every executed task is timed and accounted under the
    pool lock — tasks spawned/executed, tasks {e stolen} (executed by a
    domain other than the spawner), cumulative busy and idle seconds
    across runners, and a log-scale task-duration histogram (<1ms,
    <10ms, <100ms, <1s, >=1s). {!stats} snapshots, {!reset_stats}
    zeroes between benchmark phases. *)

type 'a state = Pending | Done of 'a | Raised of exn * Printexc.raw_backtrace

type 'a future = { mutable st : 'a state; spawner : int (* domain id *) }

type task = Task : { fut : 'a future; run : unit -> 'a } -> task

type stats = {
  spawned : int;  (** tasks submitted via [spawn] (and [map]) *)
  executed : int;  (** tasks run to completion *)
  stolen : int;  (** executed by a domain other than the spawner *)
  busy_seconds : float;  (** cumulative task execution time *)
  idle_seconds : float;  (** cumulative runner time blocked waiting *)
  hist : int array;  (** task durations: <1ms, <10ms, <100ms, <1s, rest *)
}

type t = {
  mutable workers : unit Domain.t array;
  size : int;  (* total concurrent runners, including the caller *)
  queue : task Queue.t;
  lock : Mutex.t;
  wake : Condition.t;  (* new task or completed future *)
  mutable closed : bool;
  (* stats, all under [lock] *)
  mutable spawned : int;
  mutable executed : int;
  mutable stolen : int;
  mutable busy : float;
  mutable idle : float;
  hist : int array;
}

let size pool = pool.size

let stats pool =
  Mutex.lock pool.lock;
  let s =
    {
      spawned = pool.spawned;
      executed = pool.executed;
      stolen = pool.stolen;
      busy_seconds = pool.busy;
      idle_seconds = pool.idle;
      hist = Array.copy pool.hist;
    }
  in
  Mutex.unlock pool.lock;
  s

let reset_stats pool =
  Mutex.lock pool.lock;
  pool.spawned <- 0;
  pool.executed <- 0;
  pool.stolen <- 0;
  pool.busy <- 0.;
  pool.idle <- 0.;
  Array.fill pool.hist 0 (Array.length pool.hist) 0;
  Mutex.unlock pool.lock

let self_id () = (Domain.self () :> int)

let bucket dt =
  if dt < 0.001 then 0
  else if dt < 0.01 then 1
  else if dt < 0.1 then 2
  else if dt < 1.0 then 3
  else 4

(* Run one claimed task and publish its result. Called without the
   lock; takes it only to account stats and signal completion. *)
let run_task pool (Task { fut; run }) =
  let t0 = Unix.gettimeofday () in
  let outcome =
    match run () with
    | v -> Done v
    | exception e -> Raised (e, Printexc.get_raw_backtrace ())
  in
  let dt = Unix.gettimeofday () -. t0 in
  Mutex.lock pool.lock;
  fut.st <- outcome;
  pool.executed <- pool.executed + 1;
  if self_id () <> fut.spawner then pool.stolen <- pool.stolen + 1;
  pool.busy <- pool.busy +. dt;
  pool.hist.(bucket dt) <- pool.hist.(bucket dt) + 1;
  (* Broadcast: the awaiter of [fut] may be blocked, and distinct
     runners may await distinct futures. *)
  Condition.broadcast pool.wake;
  Mutex.unlock pool.lock

let rec worker_loop pool =
  Mutex.lock pool.lock;
  let rec claim () =
    match Queue.take_opt pool.queue with
    | Some task ->
      Mutex.unlock pool.lock;
      run_task pool task;
      worker_loop pool
    | None ->
      if pool.closed then Mutex.unlock pool.lock
      else begin
        let t0 = Unix.gettimeofday () in
        Condition.wait pool.wake pool.lock;
        pool.idle <- pool.idle +. (Unix.gettimeofday () -. t0);
        claim ()
      end
  in
  claim ()

let create n =
  let n = max 1 n in
  let pool =
    {
      workers = [||];
      size = n;
      queue = Queue.create ();
      lock = Mutex.create ();
      wake = Condition.create ();
      closed = false;
      spawned = 0;
      executed = 0;
      stolen = 0;
      busy = 0.;
      idle = 0.;
      hist = Array.make 5 0;
    }
  in
  if n > 1 then begin
    (* Flip the SMT substrate to locked mode {e before} any worker can
       intern a term or touch a shared cache. *)
    Vdp_smt.Par.enter ();
    pool.workers <-
      Array.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool))
  end;
  pool

let shutdown pool =
  if pool.size > 1 && not pool.closed then begin
    Mutex.lock pool.lock;
    pool.closed <- true;
    Condition.broadcast pool.wake;
    Mutex.unlock pool.lock;
    Array.iter Domain.join pool.workers;
    pool.workers <- [||];
    Vdp_smt.Par.leave ()
  end

let with_pool n f =
  let pool = create n in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let spawn pool f =
  if pool.size <= 1 then begin
    (* Sequential pool: run inline, still tracking task counts so
       callers can reason about granularity uniformly. *)
    let fut = { st = Pending; spawner = self_id () } in
    pool.spawned <- pool.spawned + 1;
    let t0 = Unix.gettimeofday () in
    (match f () with
    | v -> fut.st <- Done v
    | exception e -> fut.st <- Raised (e, Printexc.get_raw_backtrace ()));
    let dt = Unix.gettimeofday () -. t0 in
    pool.executed <- pool.executed + 1;
    pool.busy <- pool.busy +. dt;
    pool.hist.(bucket dt) <- pool.hist.(bucket dt) + 1;
    fut
  end
  else begin
    let fut = { st = Pending; spawner = self_id () } in
    Mutex.lock pool.lock;
    if pool.closed then begin
      Mutex.unlock pool.lock;
      invalid_arg "Pool.spawn: pool is shut down"
    end;
    Queue.add (Task { fut; run = f }) pool.queue;
    pool.spawned <- pool.spawned + 1;
    Condition.signal pool.wake;
    Mutex.unlock pool.lock;
    fut
  end

(* Help-first wait: while the future is pending, run queued tasks; only
   block when there is nothing to help with. *)
let await pool fut =
  let rec loop () =
    Mutex.lock pool.lock;
    match fut.st with
    | Done v ->
      Mutex.unlock pool.lock;
      v
    | Raised (e, bt) ->
      Mutex.unlock pool.lock;
      Printexc.raise_with_backtrace e bt
    | Pending -> (
      match Queue.take_opt pool.queue with
      | Some task ->
        Mutex.unlock pool.lock;
        run_task pool task;
        loop ()
      | None ->
        let t0 = Unix.gettimeofday () in
        Condition.wait pool.wake pool.lock;
        pool.idle <- pool.idle +. (Unix.gettimeofday () -. t0);
        Mutex.unlock pool.lock;
        loop ())
  in
  loop ()

let map pool f xs =
  let n = Array.length xs in
  if pool.size <= 1 || n <= 1 then Array.map f xs
  else begin
    let futs = Array.map (fun x -> spawn pool (fun () -> f x)) xs in
    (* Await every element — even past a failure — so no task of this
       call is still running when we return; then re-raise the
       exception of the smallest failing index. *)
    let first_err = ref None in
    let results =
      Array.map
        (fun fut ->
          match await pool fut with
          | v -> Some v
          | exception e ->
            if !first_err = None then
              first_err := Some (e, Printexc.get_raw_backtrace ());
            None)
        futs
    in
    match !first_err with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
      Array.map (function Some r -> r | None -> assert false) results
  end

let map_list pool f xs = Array.to_list (map pool f (Array.of_list xs))
