(** The symbolic-execution engine: explores every feasible path
    ("segment") of one element under unconstrained symbolic input,
    collecting per-segment path constraints, packet transformations,
    outcomes and instruction counts — Step 1 of the paper's two-step
    verification.

    Loops are either unrolled (counted, straight-line bodies like
    checksums) or summarised via the mini-element decomposition: the
    body is symbexed once from a havocked iteration state, a strictly
    increasing bounded measure is found with the solver to bound the
    trip count, and execution resumes from the loop exits with packet
    contents havocked. Summarised segments carry an instruction
    {e interval} instead of an exact count. *)

module B = Vdp_bitvec.Bitvec
module T = Vdp_smt.Term
module Interval = Vdp_smt.Interval
module Solver = Vdp_smt.Solver
module Ir = Vdp_ir.Types
module Sdata = Vdp_ir.Static_data
module S = Sstate

type crash =
  | C_assert of string
  | C_oob of string
  | C_headroom
  | C_div0
  | C_abort of string

type outcome =
  | O_emit of int
  | O_drop
  | O_crash of crash

type out_state = {
  head_delta : int;
  min_delta : int;
  len_out : T.t;
  writes : (int * T.t) list;  (** post-window offset -> byte term *)
  havoc : (int * int) option;
      (** [(epoch, head)] when a loop summary forgot the packet
          contents: unwritten output byte [j] is then the deterministic
          havoc variable for absolute offset [head + j], matching the
          names the segment's own post-havoc reads used. *)
  meta_out : (Ir.meta * T.t) list;
}

type segment = {
  cond : T.t list;
  out_state : out_state;
  outcome : outcome;
  instr_lo : int;
  instr_hi : int;
  kv_log : S.kv_event list;
  summarized : bool;  (** involved a loop summary (bounds, not exact) *)
}

type config = {
  headroom : int;
  max_len : int;           (** assumed bound on the input length *)
  max_paths : int;
  max_offset_fork : int;   (** candidates when concretising offsets *)
  max_unroll : int;
  summarize_loops : bool;
  branchy_threshold : int; (** body branches >= this trigger summarisation *)
  solver_budget : int;     (** conflict budget for summary-time checks *)
}

let default_config =
  {
    headroom = Vdp_packet.Packet.default_headroom;
    max_len = 1514;
    max_paths = 200_000;
    max_offset_fork = 64;
    max_unroll = 80;
    summarize_loops = true;
    branchy_threshold = 1;
    solver_budget = 20_000;
  }

type result = {
  segments : segment list;
  paths : int;        (** completed paths *)
  incomplete : int;   (** abandoned paths (budget / unsupported) *)
  forks : int;
  abandon_reasons : (string * int) list;
  static_deps : (int * B.t) list;
      (** static-state slices the segments baked in: ({!Static_data} id,
          concrete key) per exact static read. A mutation of one of
          these slices invalidates any cache entry built from this
          result; symbolic-key reads return fresh unconstrained values
          and therefore depend on no slice. *)
}

exception Budget_exceeded

type mode =
  | Normal
  | Summary of {
      head : int;
      body : int list;
      register_continue : S.t -> unit;
      register_exit : S.t -> int -> unit;
    }

type ctx = {
  prog : Ir.program;
  cfg : config;
  loops : Loopinfo.loop list;
  mutable segments : segment list;
  mutable npaths : int;
  mutable nincomplete : int;
  mutable nforks : int;
  mutable abandoned : (string * int) list;
  mutable static_deps : (int * B.t) list;
  loop_proofs : Solver.ctx Lazy.t;
      (* one incremental context for every loop proof of this
         exploration, made on first use *)
}

(* Per-path "summarized" and instruction-slack live in the state's
   [extra_instrs]; a path is summarized iff extra_instrs > 0 or the
   packet was havocked. *)

let crash_to_string = function
  | C_assert m -> "assert: " ^ m
  | C_oob m -> "out-of-bounds: " ^ m
  | C_headroom -> "headroom exhausted"
  | C_div0 -> "division by zero"
  | C_abort m -> "abort: " ^ m

let pp_outcome fmt = function
  | O_emit p -> Format.fprintf fmt "emit(%d)" p
  | O_drop -> Format.pp_print_string fmt "drop"
  | O_crash c -> Format.fprintf fmt "crash(%s)" (crash_to_string c)

(* The interpreter's out-of-bounds messages carry concrete offsets the
   symbolic engine cannot know, so O_oob matches on kind only. *)
let crash_matches (c : crash) (rc : Ir.crash) =
  match (c, rc) with
  | C_assert m, Ir.Assert_failed m' -> m = m'
  | C_oob _, Ir.Out_of_bounds _ -> true
  | C_headroom, Ir.Headroom_exhausted -> true
  | C_div0, Ir.Div_by_zero -> true
  | C_abort m, Ir.Aborted m' -> m = m'
  | _ -> false

let outcome_matches (o : outcome) (ro : Ir.outcome) =
  match (o, ro) with
  | O_emit p, Ir.Emitted p' -> p = p'
  | O_drop, Ir.Dropped -> true
  | O_crash c, Ir.Crashed rc -> crash_matches c rc
  | _ -> false

(* Cheap feasibility filter: constant folding + interval refutation of
   the path and [extra], decided on the path's running environment
   ([Interval.refute_list (extra :: path)] exactly, without rescanning
   the path). [Some env] is the path's environment with [extra] added.
   Sound to keep infeasible paths (Step 2 re-checks with the solver). *)
let plausible (st : S.t) extra =
  let env = Interval.extend st.S.env extra in
  if Interval.refuted env then None else Some env

let rv_term (st : S.t) = function
  | Ir.Const v -> T.bv v
  | Ir.Reg r -> st.S.regs.(r)

let finish_segment ctx (st : S.t) outcome =
  ctx.npaths <- ctx.npaths + 1;
  if ctx.npaths > ctx.cfg.max_paths then raise Budget_exceeded;
  let writes =
    Hashtbl.fold
      (fun abs term acc ->
        let post = abs - st.S.head in
        if post >= 0 then (post, term) :: acc else acc)
      st.S.overrides []
    |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)
  in
  let seg =
    {
      cond = S.path_conjuncts st;
      out_state =
        {
          head_delta = st.S.head - st.S.headroom;
          min_delta = st.S.min_head - st.S.headroom;
          len_out = st.S.len;
          writes;
          havoc =
            (if st.S.havocked_packet then Some (st.S.havoc_epoch, st.S.head)
             else None);
          meta_out = st.S.meta;
        };
      outcome;
      instr_lo = st.S.instrs;
      instr_hi = st.S.instrs + st.S.extra_instrs;
      kv_log = List.rev st.S.kv_log;
      summarized = st.S.extra_instrs > 0 || st.S.havocked_packet;
    }
  in
  ctx.segments <- seg :: ctx.segments

let abandon ?(reason = "other") ctx =
  ctx.nincomplete <- ctx.nincomplete + 1;
  let n = try List.assoc reason ctx.abandoned with Not_found -> 0 in
  ctx.abandoned <- (reason, n + 1) :: List.remove_assoc reason ctx.abandoned

(* Fork on a boolean term. Each side runs only if cheaply plausible. *)
let fork ctx st cond k_true k_false =
  if T.is_true cond then k_true st
  else if T.is_false cond then k_false st
  else begin
    let ncond = T.not_ cond in
    match (plausible st cond, plausible st ncond) with
    | Some t_env, Some f_env ->
      ctx.nforks <- ctx.nforks + 1;
      let st' = S.clone st in
      S.assume ~env:t_env st cond;
      k_true st;
      S.assume ~env:f_env st' ncond;
      k_false st'
    | Some env, None ->
      S.assume ~env st cond;
      k_true st
    | None, Some env ->
      S.assume ~env st ncond;
      k_false st
    | None, None -> (* path itself infeasible *) ()
  end

(* Concretise a 16-bit offset term: call [k st v] for every plausible
   concrete value among those the term can take on this path
   ([Interval.values] of the path's environment). Symbolic offsets only
   survive to here in normal mode (summaries replace such reads with
   fresh values). *)
let concretize ctx (st : S.t) ~max_v term k =
  match T.const_value term with
  | Some v -> k st (B.to_int_trunc v)
  | None -> (
    match Interval.values st.S.env term ~cap:ctx.cfg.max_offset_fork with
    | Some vs ->
      let candidates = ref [] in
      List.iter
        (fun v ->
          if v <= max_v then
            let cond = T.eq term (T.bv_int ~width:(T.width term) v) in
            match plausible st cond with
            | Some env -> candidates := (v, cond, env) :: !candidates
            | None -> ())
        vs;
      (match !candidates with
      | [] -> ()
      | [ (v, cond, env) ] ->
        S.assume ~env st cond;
        k st v
      | many ->
        List.iter
          (fun (v, cond, env) ->
            ctx.nforks <- ctx.nforks + 1;
            let st' = S.clone st in
            S.assume ~env st' cond;
            k st' v)
          many)
    | None -> abandon ~reason:"offset-fork" ctx)

(* Out-of-bounds condition for an [n]-byte access at 16-bit offset
   [off]: computed at 32 bits to avoid wrap-around. *)
let oob_cond (st : S.t) off n =
  let off32 = T.zext 32 off in
  let len32 = T.zext 32 st.S.len in
  T.ugt (T.add off32 (T.bv_int ~width:32 n)) len32

let bump st = st.S.instrs <- st.S.instrs + 1

let rec exec_block ctx mode (st : S.t) =
  let blk = ctx.prog.Ir.blocks.(st.S.block) in
  exec_instrs ctx mode st blk.Ir.instrs (fun st ->
      bump st;
      exec_term ctx mode st blk.Ir.term)

and exec_instrs ctx mode st instrs k =
  match instrs with
  | [] -> k st
  | ins :: rest ->
    exec_instr ctx mode st ins (fun st -> exec_instrs ctx mode st rest k)

and exec_instr ctx mode (st : S.t) ins k =
  bump st;
  let rv = rv_term st in
  match ins with
  | Ir.Assign (r, rhs) -> exec_rhs ctx mode st r rhs k
  | Ir.Load (r, off, n) ->
    let off_t = rv off in
    fork ctx st (oob_cond st off_t n)
      (fun st ->
        finish_segment ctx st (O_crash (C_oob (Printf.sprintf "load+%d" n))))
      (fun st ->
        match mode with
        | Summary _ when T.const_value off_t = None ->
          (* Symbolic offset under havoc: over-approximate the value. *)
          st.S.regs.(r) <- S.fresh st ~hint:"ld" (8 * n);
          k st
        | _ ->
          concretize ctx st ~max_v:(ctx.cfg.headroom + ctx.cfg.max_len - n)
            off_t
            (fun st v ->
              let bytes = List.init n (fun i -> S.byte st (v + i)) in
              let term =
                List.fold_left
                  (fun acc b -> T.concat acc b)
                  (List.hd bytes) (List.tl bytes)
              in
              st.S.regs.(r) <- term;
              k st))
  | Ir.Store (off, value, n) ->
    let off_t = rv off in
    let v_t = rv value in
    fork ctx st (oob_cond st off_t n)
      (fun st ->
        finish_segment ctx st (O_crash (C_oob (Printf.sprintf "store+%d" n))))
      (fun st ->
        match mode with
        | Summary _ when T.const_value off_t = None ->
          (* Written contents are lost to the post-loop havoc anyway. *)
          k st
        | _ ->
          concretize ctx st ~max_v:(ctx.cfg.headroom + ctx.cfg.max_len - n)
            off_t
            (fun st v ->
              for i = 0 to n - 1 do
                let hi = (8 * (n - i)) - 1 in
                S.write_byte st (v + i) (T.extract ~hi ~lo:(hi - 7) v_t)
              done;
              k st))
  | Ir.Load_len r ->
    st.S.regs.(r) <- st.S.len;
    k st
  | Ir.Pull n ->
    fork ctx st (T.ult st.S.len (T.bv_int ~width:16 n))
      (fun st ->
        finish_segment ctx st (O_crash (C_oob (Printf.sprintf "pull %d" n))))
      (fun st ->
        st.S.head <- st.S.head + n;
        st.S.len <- T.sub st.S.len (T.bv_int ~width:16 n);
        k st)
  | Ir.Push n ->
    if st.S.head < n then
      finish_segment ctx st (O_crash C_headroom)
    else begin
      st.S.head <- st.S.head - n;
      if st.S.head < st.S.min_head then st.S.min_head <- st.S.head;
      st.S.len <- T.add st.S.len (T.bv_int ~width:16 n);
      for i = 0 to n - 1 do
        S.write_byte st i (T.bv (B.zero 8))
      done;
      k st
    end
  | Ir.Take v ->
    let v_t = rv v in
    fork ctx st (T.ugt v_t st.S.len)
      (fun st -> finish_segment ctx st (O_crash (C_oob "take")))
      (fun st ->
        st.S.len <- v_t;
        k st)
  | Ir.Meta_get (r, m) ->
    st.S.regs.(r) <- S.meta_term st m;
    k st
  | Ir.Meta_set (m, v) ->
    S.set_meta st m (rv v);
    k st
  | Ir.Kv_read (r, name, key) -> (
    let key_t = rv key in
    let decl =
      List.find (fun d -> d.Ir.store_name = name) ctx.prog.Ir.stores
    in
    match (decl.Ir.kind, T.const_value key_t) with
    | Ir.Static, Some kv ->
      (* A concrete-key read of a static store is exact — the current
         value is baked into the segment, so record the slice read:
         if that (store, key) mutates, this summary is stale. *)
      let data = decl.Ir.init in
      let value =
        match Sdata.find data kv with
        | Some v -> v
        | None -> decl.Ir.default
      in
      let dep = (Sdata.id data, kv) in
      if
        not
          (List.exists
             (fun (i, k') -> i = fst dep && B.equal k' kv)
             ctx.static_deps)
      then ctx.static_deps <- dep :: ctx.static_deps;
      st.S.regs.(r) <- T.bv value;
      k st
    | _ ->
      (* The paper's model: a read may return anything that could have
         been written (Step 1 over-approximates with a fresh value). *)
      let value = S.fresh st ~hint:("kv_" ^ name) decl.Ir.val_width in
      S.record_kv st
        (S.Kv_read { store = name; key = key_t; value; cond = S.path_term st });
      st.S.regs.(r) <- value;
      k st)
  | Ir.Kv_write (name, key, v) ->
    S.record_kv st
      (S.Kv_write
         { store = name; key = rv key; value = rv v; cond = S.path_term st });
    k st
  | Ir.Assert (c, msg) ->
    fork ctx st (T.eq (rv c) (T.bv (B.of_bool true)))
      k
      (fun st -> finish_segment ctx st (O_crash (C_assert msg)))

and exec_rhs ctx mode st r rhs k =
  ignore mode;
  let rv = rv_term st in
  let simple t =
    st.S.regs.(r) <- t;
    k st
  in
  match rhs with
  | Ir.Move v -> simple (rv v)
  | Ir.Unop (Ir.Not, v) -> simple (T.bnot (rv v))
  | Ir.Unop (Ir.Neg, v) -> simple (T.bneg (rv v))
  | Ir.Binop (op, a, b) -> (
    let ta = rv a and tb = rv b in
    let divlike f =
      (* Division by zero crashes; fork on the divisor. *)
      fork ctx st (T.eq tb (T.bv (B.zero (T.width tb))))
        (fun st -> finish_segment ctx st (O_crash C_div0))
        (fun st ->
          st.S.regs.(r) <- f ta tb;
          k st)
    in
    match op with
    | Ir.Add -> simple (T.add ta tb)
    | Ir.Sub -> simple (T.sub ta tb)
    | Ir.Mul -> simple (T.mul ta tb)
    | Ir.Udiv -> divlike T.udiv
    | Ir.Urem -> divlike T.urem
    | Ir.Sdiv -> divlike T.sdiv
    | Ir.Srem -> divlike T.srem
    | Ir.And -> simple (T.band ta tb)
    | Ir.Or -> simple (T.bor ta tb)
    | Ir.Xor -> simple (T.bxor ta tb)
    | Ir.Shl -> simple (T.shl ta tb)
    | Ir.Lshr -> simple (T.lshr ta tb)
    | Ir.Ashr -> simple (T.ashr ta tb))
  | Ir.Cmp (op, a, b) ->
    let ta = rv a and tb = rv b in
    let cond =
      match op with
      | Ir.Eq -> T.eq ta tb
      | Ir.Ne -> T.neq ta tb
      | Ir.Ult -> T.ult ta tb
      | Ir.Ule -> T.ule ta tb
      | Ir.Slt -> T.slt ta tb
      | Ir.Sle -> T.sle ta tb
    in
    simple (T.ite cond (T.bv (B.of_bool true)) (T.bv (B.of_bool false)))
  | Ir.Select (c, a, b) ->
    let cond = T.eq (rv c) (T.bv (B.of_bool true)) in
    simple (T.ite cond (rv a) (rv b))
  | Ir.Extract (hi, lo, v) -> simple (T.extract ~hi ~lo (rv v))
  | Ir.Concat (a, b) -> simple (T.concat (rv a) (rv b))
  | Ir.Zext (w, v) -> simple (T.zext w (rv v))
  | Ir.Sext (w, v) -> simple (T.sext w (rv v))

and exec_term ctx mode (st : S.t) term =
  match term with
  | Ir.Goto l -> goto ctx mode st l
  | Ir.Branch (c, t, e) ->
    let cond = T.eq (rv_term st c) (T.bv (B.of_bool true)) in
    fork ctx st cond
      (fun st -> goto ctx mode st t)
      (fun st -> goto ctx mode st e)
  | Ir.Emit p -> finish_segment ctx st (O_emit p)
  | Ir.Drop -> finish_segment ctx st O_drop
  | Ir.Abort m -> finish_segment ctx st (O_crash (C_abort m))

and goto ctx mode (st : S.t) l =
  match mode with
  | Summary { head; register_continue; _ } when l = head ->
    register_continue st
  | Summary { body; register_exit; _ } when not (List.mem l body) ->
    register_exit st l
  | _ -> (
    let visits =
      match Hashtbl.find_opt st.S.visits l with Some v -> v | None -> 0
    in
    Hashtbl.replace st.S.visits l (visits + 1);
    let normal = match mode with Normal -> true | Summary _ -> false in
    let loop =
      if normal && visits = 0 && ctx.cfg.summarize_loops then
        match Loopinfo.loop_at ctx.loops l with
        | Some lp
          when lp.Loopinfo.body_branches >= ctx.cfg.branchy_threshold
               && not lp.Loopinfo.has_head_adjust ->
          Some lp
        | _ -> None
      else None
    in
    match loop with
    | Some lp -> summarize_loop ctx st lp
    | None ->
      if visits + 1 > ctx.cfg.max_unroll then abandon ~reason:"unroll" ctx
      else begin
        st.S.block <- l;
        exec_block ctx mode st
      end)

(* {1 Loop summarisation (mini-element decomposition)} *)

and summarize_loop ctx (st : S.t) (lp : Loopinfo.loop) =
  let head = lp.Loopinfo.head in
  let base_instrs = st.S.instrs in
  let budget = ctx.cfg.solver_budget in
  (* Explore one havocked iteration of the body. Modified registers get
     fresh "pre" variables; packet contents are forgotten (writes in
     previous iterations could be anywhere the body's own guards
     allow). [assume_bound] optionally constrains one pre variable —
     the solver-verified value-range invariant of the second phase. *)
  let explore_body ~assume_bound =
    let st0 = S.clone st in
    let pre = Hashtbl.create 8 in
    List.iter
      (fun r ->
        let v = S.fresh st0 ~hint:"pre" (T.width st0.S.regs.(r)) in
        Hashtbl.replace pre r v;
        st0.S.regs.(r) <- v)
      lp.Loopinfo.modified_regs;
    List.iter
      (fun m -> S.set_meta st0 m (S.fresh st0 ~hint:"mpre" (Ir.meta_width m)))
      lp.Loopinfo.modified_meta;
    S.havoc_packet st0;
    (match assume_bound with
    | Some (r, i) ->
      let pre_v = Hashtbl.find pre r in
      S.assume st0 (T.ult pre_v (T.bv_int ~width:(T.width pre_v) i))
    | None -> ());
    let continues = ref [] in
    let exits = ref [] in
    let mode =
      Summary
        {
          head;
          body = lp.Loopinfo.body;
          register_continue = (fun s -> continues := s :: !continues);
          register_exit = (fun s l -> exits := (s, l) :: !exits);
        }
    in
    st0.S.block <- head;
    exec_block ctx mode st0;
    (!continues, !exits, pre)
  in
  (* Each proof asks whether [fact] is impossible on a path, on the
     exploration's loop context: the paths' shared terms are blasted
     once for all of its proofs. *)
  let refuted fact (s : S.t) =
    let solver = Lazy.force ctx.loop_proofs in
    Solver.push solver;
    Solver.assert_terms solver (fact :: s.S.path);
    let outcome = Solver.check_ctx ~max_conflicts:budget solver in
    Solver.pop solver;
    match outcome with
    | Solver.Unsat -> true
    | Solver.Sat _ | Solver.Unknown -> false
  in
  (* Phase A: unconstrained havoc — used to discover the measure. *)
  let saved_segments = ctx.segments in
  let saved_npaths = ctx.npaths in
  let continues_a, exits_a, pre_a = explore_body ~assume_bound:None in
  (* A strictly increasing, bounded measure among the modified
     registers bounds the trip count. Full path constraints are used:
     pre-loop facts (header-length bounds etc.) matter. *)
  let progress_reg r =
    let pre_v = Hashtbl.find pre_a r in
    if T.width pre_v > 16 then None
    else if
      List.for_all
        (fun (s : S.t) -> refuted (T.ule s.S.regs.(r) pre_v) s)
        continues_a
    then begin
      (* Smallest power-of-two bound C with pre < C on every continue. *)
      let rec find_bound c =
        if c > 1 lsl T.width pre_v then None
        else if
          List.for_all
            (refuted (T.uge pre_v (T.bv_int ~width:(T.width pre_v) (c - 1))))
            continues_a
        then Some c
        else find_bound (2 * c)
      in
      match find_bound 2 with Some c -> Some (r, c) | None -> None
    end
    else None
  in
  let measure =
    if continues_a = [] then Some (-1, 0) (* body always exits: one pass *)
    else
      List.fold_left
        (fun acc r -> match acc with Some _ -> acc | None -> progress_reg r)
        None lp.Loopinfo.modified_regs
  in
  match measure with
  | None ->
    abandon ~reason:"no-measure" ctx (* cannot bound the loop: give up *)
  | Some (r, iters) ->
    (* Value-range invariant: if [init < 2C] and every continuing
       iteration's post stays [< 2C], then "measure < 2C" holds at every
       iteration entry (induction), so the body can be re-explored under
       that assumption. This kills the spurious wrap-around crashes a
       fully havocked counter would otherwise admit. *)
    let invariant =
      if r < 0 then None
      else begin
        let w = T.width (Hashtbl.find pre_a r) in
        let i = 2 * iters in
        if i >= 1 lsl w then None
        else begin
          let i_bv = T.bv_int ~width:w i in
          let init_ok = refuted (T.uge st.S.regs.(r) i_bv) st in
          let posts_ok =
            List.for_all
              (fun (s : S.t) -> refuted (T.uge s.S.regs.(r) i_bv) s)
              continues_a
          in
          if init_ok && posts_ok then Some (r, i) else None
        end
      end
    in
    let continues, exits =
      match invariant with
      | None -> (continues_a, exits_a)
      | Some _ ->
        (* Re-explore under the invariant; drop phase-A recordings. *)
        ctx.segments <- saved_segments;
        ctx.npaths <- saved_npaths;
        let continues_b, exits_b, _ = explore_body ~assume_bound:invariant in
        (continues_b, exits_b)
    in
    let max_body =
      List.fold_left
        (fun m (s : S.t) -> max m (s.S.instrs - base_instrs))
        0 continues
    in
    let slack = iters * max_body in
    (* Resume from every exit of the (havocked) final iteration. *)
    List.iter
      (fun ((s : S.t), target) ->
        let s = S.clone s in
        s.S.extra_instrs <- s.S.extra_instrs + slack;
        goto ctx Normal s target)
      exits

(* {1 Entry point} *)

let explore ?(config = default_config) (prog : Ir.program) : result =
  let st = S.init ~headroom:config.headroom prog in
  (* Global input assumption: the frame fits the modelled buffer. *)
  S.assume st
    (T.ule (T.var S.len_var 16) (T.bv_int ~width:16 config.max_len));
  let ctx =
    {
      prog;
      cfg = config;
      loops = Loopinfo.analyze prog;
      segments = [];
      npaths = 0;
      nincomplete = 0;
      nforks = 0;
      abandoned = [];
      static_deps = [];
      loop_proofs = lazy (Solver.create_ctx ());
    }
  in
  (try exec_block ctx Normal st with Budget_exceeded -> ctx.nincomplete <- ctx.nincomplete + 1);
  {
    segments = List.rev ctx.segments;
    paths = ctx.npaths;
    incomplete = ctx.nincomplete;
    forks = ctx.nforks;
    abandon_reasons = ctx.abandoned;
    static_deps = ctx.static_deps;
  }
