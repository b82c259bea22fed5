(* CDCL with two-watched literals, VSIDS decision heap, first-UIP clause
   learning, phase saving and Luby restarts. The structure follows
   MiniSat; invariants that matter are commented at the point they are
   maintained. *)

type result = Sat | Unsat | Unknown

let lit v positive = (v * 2) + if positive then 0 else 1
let lit_not l = l lxor 1
let lit_var l = l lsr 1
let lit_is_pos l = l land 1 = 0

(* Growable int vector. *)
module Vec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 16 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let len v = v.len
  let shrink v n = v.len <- n
end

type clause = {
  lits : int array;
  learned : bool;
  mutable activity : float;
  mutable deleted : bool;
      (* reduced learned clauses (and root-satisfied clauses removed by
         [simplify]) are only marked here; watch lists drop them lazily
         the next time propagation visits them *)
}

(* {1 Antecedent tracking}

   The solver's one proof record. When enabled, every clause addition —
   problem clauses as asserted and every derived clause — receives a
   monotonically increasing {e serial} and is logged under it, and every
   derivation records which serials it resolved on: the conflicting
   clause, each reason clause dereferenced by conflict analysis, and the
   level-0 literals it silently dropped (encoded as [-1 - var] and
   resolved lazily against the solver's reason graph — level-0
   assignments are never undone, so the reasons survive until the walk).
   Deletions are never logged: a clause the database drops stays in the
   log, so a trimmed proof carries no deletions. On every Unsat exit —
   including Unsat under assumptions — the solver immediately computes
   the backward dependency cone from the final conflict.

   Two consumers: {!last_cone_tags} maps the cone back to caller tags
   attached via [add_clause ~tag] (the incremental front end tags each
   asserted conjunct, turning the cone into an unsat core over the
   query's conjuncts), and {!trimmed_proof} reads the cone's clauses
   back out of the log in serial order (backward proof trimming: only
   clauses reachable from the refutation are kept), each derived
   clause with its antecedents as LRAT hints. Serials are
   chronological, so that order puts every derived clause after its
   antecedents. Tracking costs one [match] per site when off. *)

type track = {
  mutable cser : int array;  (* clause arena id -> serial, -1 *)
  mutable vser : int array;  (* var -> serial of the unit step that
                                assigned it at level 0, -1 *)
  mutable next_serial : int;
  mutable log : int array array;  (* serial -> clause as logged *)
  ants : (int, int array) Hashtbl.t;  (* derived serial -> antecedents;
                                         entries >= 0 are serials,
                                         [-1 - v] is variable [v]; the
                                         keys are the derived serials *)
  tags : (int, int) Hashtbl.t;  (* serial -> caller tag *)
  mutable cone : (int, unit) Hashtbl.t option;  (* last Unsat's cone *)
  mutable root_hints : int array;
      (* when the cone's root is not a derived empty clause, the hints
         of the empty step {!trimmed_proof} synthesizes for it: serials,
         and [-1 - j] for the goal unit of assumption [j] *)
  mutable tpos : int array;  (* var -> trail index; filled lazily for
                                level 0 up to [tfilled] *)
  mutable tfilled : int;
  mutable vmap : int array;  (* var -> its number in the proof being
                                read out, -1 *)
}

type t = {
  mutable nvars : int;
  mutable clauses : clause array;  (* arena; index = clause id *)
  mutable nclauses : int;
  mutable watches : Vec.t array;   (* literal -> clause ids *)
  mutable assigns : int array;     (* var -> -1 / 0 / 1 *)
  mutable levels : int array;
  mutable reasons : int array;     (* var -> clause id or -1 *)
  mutable phase : bool array;      (* saved phase *)
  mutable activity : float array;
  mutable heap : int array;        (* binary max-heap of vars *)
  mutable heap_pos : int array;    (* var -> index in heap, -1 if absent *)
  mutable heap_len : int;
  trail : Vec.t;
  trail_lim : Vec.t;
  mutable qhead : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable unsat : bool;
  mutable conflicts : int;
  mutable seen : bool array;       (* scratch for analyze *)
  (* Learned-clause database reduction (MiniSat-style): when the
     conflicts since the last reduction exceed a budget that grows by
     [reduce_grow] per reduction, the lowest-activity half of the live
     learned clauses is deleted. Locked clauses (the reason of a
     currently-assigned variable) and binary clauses are always kept. *)
  mutable nlearned : int;          (* live learned clauses *)
  mutable nproblem : int;          (* live problem (non-learned) clauses *)
  mutable learned_deleted : int;   (* cumulative *)
  mutable reductions : int;
  reduce_interval : int;           (* first reduction budget *)
  reduce_grow : int;
  mutable last_reduce : int;       (* [conflicts] at the last reduction *)
  mutable track : track option;    (* antecedent tracking, when enabled *)
}

let create ?(reduce_interval = 2000) () =
  {
    nvars = 0;
    clauses =
      Array.make 64 { lits = [||]; learned = false; activity = 0.; deleted = false };
    nclauses = 0;
    watches = Array.init 64 (fun _ -> Vec.create ());
    assigns = Array.make 32 (-1);
    levels = Array.make 32 0;
    reasons = Array.make 32 (-1);
    phase = Array.make 32 false;
    activity = Array.make 32 0.;
    heap = Array.make 32 0;
    heap_pos = Array.make 32 (-1);
    heap_len = 0;
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    unsat = false;
    conflicts = 0;
    seen = Array.make 32 false;
    nlearned = 0;
    nproblem = 0;
    learned_deleted = 0;
    reductions = 0;
    reduce_interval;
    reduce_grow = 300;
    last_reduce = 0;
    track = None;
  }

let enable_tracking s =
  if s.track = None then
    s.track <-
      Some
        {
          cser = Array.make (max 64 (Array.length s.clauses)) (-1);
          vser = Array.make (max 32 s.nvars) (-1);
          next_serial = 0;
          log = Array.make 64 [||];
          ants = Hashtbl.create 256;
          tags = Hashtbl.create 64;
          cone = None;
          root_hints = [||];
          tpos = Array.make (max 32 s.nvars) (-1);
          tfilled = 0;
          vmap = Array.make (max 32 s.nvars) (-1);
        }

let tracking s = s.track <> None

(* Log [lits] under the next serial and return it; -1 when off. *)
let track_clause s tag lits =
  match s.track with
  | None -> -1
  | Some tr ->
    let k = tr.next_serial in
    tr.next_serial <- k + 1;
    if k = Array.length tr.log then begin
      let log = Array.make (2 * k) [||] in
      Array.blit tr.log 0 log 0 k;
      tr.log <- log
    end;
    tr.log.(k) <- lits;
    (match tag with Some t -> Hashtbl.replace tr.tags k t | None -> ());
    k

let track_orig s tag lits =
  if s.track = None then -1 else track_clause s tag (Array.of_list lits)

(* [lits] may be the very array the arena stores: watch maintenance
   reorders it in place, which leaves the logged clause set-equal. *)
let track_add s tag ants lits =
  let k = track_clause s tag lits in
  (match s.track with
  | Some tr -> Hashtbl.replace tr.ants k (Array.of_list ants)
  | None -> ());
  k

let num_derived s =
  match s.track with None -> 0 | Some tr -> Hashtbl.length tr.ants

let num_vars s = s.nvars
let num_problem_clauses s = s.nproblem
let num_learned_deleted s = s.learned_deleted
let num_reductions s = s.reductions

let grow_array arr n default =
  let len = Array.length arr in
  if n <= len then arr
  else begin
    let arr' = Array.make (max n (2 * len)) default in
    Array.blit arr 0 arr' 0 len;
    arr'
  end

(* {1 Decision heap ordered by activity} *)

let heap_less s v1 v2 = s.activity.(v1) > s.activity.(v2)

let heap_swap s i j =
  let vi = s.heap.(i) and vj = s.heap.(j) in
  s.heap.(i) <- vj;
  s.heap.(j) <- vi;
  s.heap_pos.(vi) <- j;
  s.heap_pos.(vj) <- i

let rec heap_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_less s s.heap.(i) s.heap.(parent) then begin
      heap_swap s i parent;
      heap_up s parent
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_len && heap_less s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_len && heap_less s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) = -1 then begin
    s.heap <- grow_array s.heap (s.heap_len + 1) 0;
    s.heap.(s.heap_len) <- v;
    s.heap_pos.(v) <- s.heap_len;
    s.heap_len <- s.heap_len + 1;
    heap_up s (s.heap_len - 1)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_len <- s.heap_len - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_len > 0 then begin
    let last = s.heap.(s.heap_len) in
    s.heap.(0) <- last;
    s.heap_pos.(last) <- 0;
    heap_down s 0
  end;
  v

let heap_decrease s v = if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

(* {1 Variables} *)

let grow_array_bool arr n =
  let len = Array.length arr in
  if n <= len then arr
  else begin
    let arr' = Array.make (max n (2 * len)) false in
    Array.blit arr 0 arr' 0 len;
    arr'
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  (match s.track with
  | Some tr ->
    tr.vser <- grow_array tr.vser s.nvars (-1);
    tr.tpos <- grow_array tr.tpos s.nvars (-1);
    tr.vmap <- grow_array tr.vmap s.nvars (-1)
  | None -> ());
  s.assigns <- grow_array s.assigns s.nvars (-1);
  s.levels <- grow_array s.levels s.nvars 0;
  s.reasons <- grow_array s.reasons s.nvars (-1);
  s.activity <- grow_array s.activity s.nvars 0.;
  s.heap_pos <- grow_array s.heap_pos s.nvars (-1);
  s.seen <- grow_array_bool s.seen s.nvars;
  s.phase <- grow_array_bool s.phase s.nvars;
  (let nlits = 2 * s.nvars in
   if nlits > Array.length s.watches then begin
     let w = Array.init (max nlits (2 * Array.length s.watches)) (fun _ ->
       Vec.create ())
     in
     Array.blit s.watches 0 w 0 (Array.length s.watches);
     s.watches <- w
   end);
  heap_insert s v;
  v

let lit_value s l =
  let a = s.assigns.(lit_var l) in
  if a = -1 then -1 else a lxor (l land 1)

(* 1 = true, 0 = false, -1 = unassigned, for literal [l]. *)

let decision_level s = Vec.len s.trail_lim

let enqueue s l reason =
  s.assigns.(lit_var l) <- 1 lxor (l land 1);
  s.levels.(lit_var l) <- decision_level s;
  s.reasons.(lit_var l) <- reason;
  s.phase.(lit_var l) <- lit_is_pos l;
  Vec.push s.trail l

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  heap_decrease s v

let var_decay s = s.var_inc <- s.var_inc /. 0.95

let cla_bump s (c : clause) =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
    for cid = 0 to s.nclauses - 1 do
      let c = s.clauses.(cid) in
      if c.learned then c.activity <- c.activity *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let cla_decay s = s.cla_inc <- s.cla_inc /. 0.999

(* {1 Clauses} *)

let attach_clause s cid =
  let c = s.clauses.(cid) in
  (* Watch the negations: when a watched literal becomes false we visit
     the clause. *)
  Vec.push s.watches.(lit_not c.lits.(0)) cid;
  Vec.push s.watches.(lit_not c.lits.(1)) cid

let add_clause_internal s lits learned =
  let cid = s.nclauses in
  if cid = Array.length s.clauses then begin
    let arr =
      Array.make (2 * cid)
        { lits = [||]; learned = false; activity = 0.; deleted = false }
    in
    Array.blit s.clauses 0 arr 0 cid;
    s.clauses <- arr
  end;
  let activity = if learned then s.cla_inc else 0. in
  (match s.track with
  | Some tr -> tr.cser <- grow_array tr.cser (cid + 1) (-1)
  | None -> ());
  s.clauses.(cid) <- { lits; learned; activity; deleted = false };
  s.nclauses <- cid + 1;
  if learned then s.nlearned <- s.nlearned + 1
  else s.nproblem <- s.nproblem + 1;
  attach_clause s cid;
  cid

(* Backward closure over recorded antecedents from [roots]. Entries
   >= 0 are serials; [-1 - v] is variable [v], resolved against the
   live reason graph (only level-0 or assumption-implied variables are
   ever encoded, and their assignments are still in place whenever a
   closure is taken — on Unsat, before any backtrack). *)
let close s roots =
  match s.track with
  | None -> Hashtbl.create 1
  | Some tr ->
    let cone = Hashtbl.create 64 in
    let vseen = Hashtbl.create 64 in
    let stack = ref roots in
    let push d = stack := d :: !stack in
    let rec go () =
      match !stack with
      | [] -> ()
      | d :: rest ->
        stack := rest;
        (if d >= 0 then begin
           if not (Hashtbl.mem cone d) then begin
             Hashtbl.replace cone d ();
             match Hashtbl.find_opt tr.ants d with
             | Some deps -> Array.iter push deps
             | None -> ()
           end
         end
         else begin
           let v = -1 - d in
           if not (Hashtbl.mem vseen v) then begin
             Hashtbl.replace vseen v ();
             if v < Array.length tr.vser && tr.vser.(v) >= 0 then
               push tr.vser.(v)
             else begin
               let cid = s.reasons.(v) in
               if cid >= 0 then begin
                 if tr.cser.(cid) >= 0 then push tr.cser.(cid);
                 Array.iter (fun l -> push (-1 - lit_var l)) s.clauses.(cid).lits
               end
               (* reason -1: a decision or assumption; terminal *)
             end
           end
         end);
        go ()
    in
    go ();
    cone

let set_cone ?(root_hints = [||]) s roots =
  match s.track with
  | None -> ()
  | Some tr ->
    tr.cone <- Some (close s roots);
    tr.root_hints <- root_hints

(* {1 Proof hints}

   A derived clause's hints are the ids of the clauses a checker visits,
   in order, to propagate the clause's negation to a conflict (LRAT).
   They are read off its antecedents: first the sources of the level-0
   variables it dropped, in trail order, then the clauses conflict
   analysis resolved on, which [analyze] records in trail order with
   the conflicting clause last. *)

(* The serial that assigned [v], its unit step at level 0 or else its
   reason clause, or -1 for a decision. *)
let source s tr v =
  if tr.vser.(v) >= 0 then tr.vser.(v)
  else
    let cid = s.reasons.(v) in
    if cid >= 0 then tr.cser.(cid) else -1

(* Trail positions of every assigned variable. Level 0 only ever grows,
   so its positions are filled once, lazily; those above it are written
   too, and rewritten once their variables reach level 0. *)
let fill_positions s tr =
  for i = tr.tfilled to Vec.len s.trail - 1 do
    tr.tpos.(lit_var (Vec.get s.trail i)) <- i
  done;
  tr.tfilled <-
    (if decision_level s = 0 then Vec.len s.trail else Vec.get s.trail_lim 0)

(* The variables [vs] rest on, in trail order: each of them and,
   transitively, the other variables of its reason clause, stopping at
   unit steps and decisions. Needs [fill_positions] first. *)
let reason_closure s tr vs =
  let found = ref [] in
  let rec go = function
    | [] -> ()
    | v :: rest when s.seen.(v) -> go rest
    | v :: rest ->
      s.seen.(v) <- true;
      found := tr.tpos.(v) :: !found;
      let cid = if tr.vser.(v) >= 0 then -1 else s.reasons.(v) in
      go
        (if cid < 0 then rest
         else
           Array.fold_left
             (fun acc l -> lit_var l :: acc)
             rest s.clauses.(cid).lits)
  in
  go vs;
  let ps = Array.of_list !found in
  Array.sort Int.compare ps;
  Array.map
    (fun p ->
      let v = lit_var (Vec.get s.trail p) in
      s.seen.(v) <- false;
      v)
    ps

(* Hints of a derived clause with antecedents [ants], each serial
   turned into a clause id by [id]. Most clauses drop no level-0
   variable, so the serials are copied without an intermediate list. *)
let step_hints s tr ants id =
  let level0 =
    Array.fold_left
      (fun acc d -> if d < 0 then (-1 - d) :: acc else acc)
      [] ants
  in
  let sources =
    if level0 = [] then [||]
    else Array.map (source s tr) (reason_closure s tr level0)
  in
  let k = ref (Array.length sources) in
  let nser = Array.fold_left (fun n d -> if d >= 0 then n + 1 else n) 0 ants in
  let hints = Array.make (!k + nser) 0 in
  Array.iteri (fun i ser -> hints.(i) <- id ser) sources;
  Array.iter
    (fun d ->
      if d >= 0 then begin
        hints.(!k) <- id d;
        incr k
      end)
    ants;
  hints

(* Assumption [dl], [al], is implied false. The cone is the dependency
   closure of that assignment, and the empty step synthesized for it
   visits the source of each assignment in the closure in trail order,
   then [al]'s goal unit, which they falsify. A decision at level [k] is
   assumption [k - 1], so its source is that assumption's goal unit.
   Taken now, while the trail above level 0 is still in place. *)
let refute_assumption s dl al =
  match s.track with
  | None -> ()
  | Some tr ->
    fill_positions s tr;
    let hint v =
      let src = source s tr v in
      if src >= 0 then src else -1 - (s.levels.(v) - 1)
    in
    set_cone s [ -1 - lit_var al ]
      ~root_hints:
        (Array.append
           (Array.map hint (reason_closure s tr [ lit_var al ]))
           [| -1 - dl |])

let rec backtrack s level =
  if decision_level s > level then begin
    let bound = Vec.get s.trail_lim level in
    for i = Vec.len s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = lit_var l in
      s.assigns.(v) <- -1;
      s.reasons.(v) <- -1;
      heap_insert s v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim level;
    s.qhead <- bound
  end

and add_clause ?tag s lits =
  if not s.unsat then begin
    (* Simplification below inspects the level-0 assignment, so leave any
       decisions from a previous [solve] first. *)
    backtrack s 0;
    let lits = List.sort_uniq Stdlib.compare lits in
    let so = track_orig s tag lits in
    let tautology =
      List.exists (fun l -> List.mem (lit_not l) lits) lits
    in
    let satisfied = List.exists (fun l -> lit_value s l = 1) lits in
    if not (tautology || satisfied) then begin
      let kept = List.filter (fun l -> lit_value s l <> 0) lits in
      (* Literals false at level 0 are dropped before storing. The
         clause as stored gets its own serial: the shortening is a
         derived step whose antecedents are the original clause plus
         the level-0 sources of every dropped literal. *)
      let shortened = List.compare_lengths kept lits <> 0 in
      let eff =
        if shortened && s.track <> None then
          track_add s tag
            (so
            :: List.filter_map
                 (fun l ->
                   if lit_value s l = 0 then Some (-1 - lit_var l) else None)
                 lits)
            (Array.of_list kept)
        else so
      in
      match kept with
      | [] ->
        s.unsat <- true;
        (* The empty clause as asserted is not a derived step: a proof
           needs one that cites it. *)
        set_cone s [ eff ]
          ~root_hints:(if shortened then [||] else [| eff |])
      | [ l ] ->
        enqueue s l (-1);
        (match s.track with
        | Some tr -> tr.vser.(lit_var l) <- eff
        | None -> ())
      | _ ->
        let cid = add_clause_internal s (Array.of_list kept) false in
        (match s.track with
        | Some tr -> tr.cser.(cid) <- eff
        | None -> ())
    end
  end

(* {1 Propagation} *)

(* Returns the id of a conflicting clause, or -1. *)
let propagate s =
  let conflict = ref (-1) in
  while !conflict = -1 && s.qhead < Vec.len s.trail do
    let l = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    (* [l] just became true; visit clauses watching [not l]. *)
    let ws = s.watches.(l) in
    let n = Vec.len ws in
    let kept = ref 0 in
    let i = ref 0 in
    while !i < n do
      let cid = Vec.get ws !i in
      incr i;
      let c = s.clauses.(cid) in
      if c.deleted then ()  (* lazily drop the watch *)
      else begin
      let false_lit = lit_not l in
      (* Normalise so the false literal is at position 1. *)
      if c.lits.(0) = false_lit then begin
        c.lits.(0) <- c.lits.(1);
        c.lits.(1) <- false_lit
      end;
      if lit_value s c.lits.(0) = 1 then begin
        (* Clause already satisfied; keep the watch. *)
        Vec.set ws !kept cid;
        incr kept
      end
      else begin
        (* Look for a new literal to watch. *)
        let found = ref false in
        let j = ref 2 in
        let len = Array.length c.lits in
        while (not !found) && !j < len do
          if lit_value s c.lits.(!j) <> 0 then begin
            c.lits.(1) <- c.lits.(!j);
            c.lits.(!j) <- false_lit;
            Vec.push s.watches.(lit_not c.lits.(1)) cid;
            found := true
          end;
          incr j
        done;
        if not !found then begin
          (* Unit or conflicting. *)
          Vec.set ws !kept cid;
          incr kept;
          if lit_value s c.lits.(0) = 0 then begin
            conflict := cid;
            (* Copy the remaining watches back and stop. *)
            while !i < n do
              Vec.set ws !kept (Vec.get ws !i);
              incr kept;
              incr i
            done;
            s.qhead <- Vec.len s.trail
          end
          else enqueue s c.lits.(0) cid
        end
      end
      end
    done;
    Vec.shrink ws !kept
  done;
  !conflict

(* {1 Learned-clause database reduction} *)

(* A clause is locked while it is the reason of an assigned variable:
   conflict analysis may dereference it, so it must survive reduction.
   Propagation keeps the propagated literal at position 0 for as long
   as the clause remains a reason. *)
let locked s cid =
  let c = s.clauses.(cid) in
  Array.length c.lits > 0
  &&
  let v = lit_var c.lits.(0) in
  s.assigns.(v) <> -1 && s.reasons.(v) = cid

let reduce_db s =
  let cands = ref [] in
  for cid = 0 to s.nclauses - 1 do
    let c = s.clauses.(cid) in
    if c.learned && (not c.deleted) && Array.length c.lits > 2
       && not (locked s cid)
    then cands := cid :: !cands
  done;
  let arr = Array.of_list !cands in
  Array.sort
    (fun a b -> Float.compare s.clauses.(a).activity s.clauses.(b).activity)
    arr;
  for i = 0 to (Array.length arr / 2) - 1 do
    let c = s.clauses.(arr.(i)) in
    c.deleted <- true;
    s.nlearned <- s.nlearned - 1;
    s.learned_deleted <- s.learned_deleted + 1
  done;
  s.reductions <- s.reductions + 1;
  s.last_reduce <- s.conflicts

(* {1 Conflict analysis (first UIP)} *)

let analyze s conflict_cid =
  let learned = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let cid = ref conflict_cid in
  let index = ref (Vec.len s.trail - 1) in
  let btlevel = ref 0 in
  let continue = ref true in
  let tracking = s.track <> None in
  (* Antecedents of the learned clause: every clause this resolution
     chain dereferences, plus the level-0 variables it silently drops
     (their unit derivations are needed for the clause to be RUP over a
     trimmed database). *)
  let ants = ref [] in
  let record_clause c =
    if tracking then
      match s.track with
      | Some tr when tr.cser.(c) >= 0 -> ants := tr.cser.(c) :: !ants
      | _ -> ()
  in
  record_clause !cid;
  while !continue do
    let c = s.clauses.(!cid) in
    if c.learned then cla_bump s c;
    let start = if !p = -1 then 0 else 1 in
    for j = start to Array.length c.lits - 1 do
      let q = c.lits.(j) in
      let v = lit_var q in
      if (not s.seen.(v)) && s.levels.(v) > 0 then begin
        s.seen.(v) <- true;
        var_bump s v;
        if s.levels.(v) >= decision_level s then incr counter
        else begin
          learned := q :: !learned;
          if s.levels.(v) > !btlevel then btlevel := s.levels.(v)
        end
      end
      else if tracking && s.levels.(v) = 0 then ants := (-1 - v) :: !ants
    done;
    (* Walk the trail backwards to the next marked literal. *)
    while not s.seen.(lit_var (Vec.get s.trail !index)) do
      decr index
    done;
    let pl = Vec.get s.trail !index in
    decr index;
    p := pl;
    s.seen.(lit_var pl) <- false;
    decr counter;
    if !counter = 0 then continue := false
    else begin
      cid := s.reasons.(lit_var pl);
      record_clause !cid
    end
  done;
  let learned_lits = lit_not !p :: !learned in
  List.iter (fun l -> s.seen.(lit_var l) <- false) !learned;
  (learned_lits, !btlevel, !ants)

let pick_branch_var s =
  let v = ref (-1) in
  while !v = -1 && s.heap_len > 0 do
    let cand = heap_pop s in
    if s.assigns.(cand) = -1 then v := cand
  done;
  !v

(* Luby sequence for restart intervals. *)
let rec luby i =
  (* Find the finite subsequence containing index i. *)
  let rec size_seq sz n = if sz >= i + 1 then (sz, n) else size_seq ((2 * sz) + 1) (n + 1) in
  let sz, n = size_seq 1 0 in
  if sz - 1 = i then float_of_int (1 lsl n)
  else luby (i - ((sz - 1) / 2))

let solve ?(max_conflicts = max_int) ?(assumptions = []) s =
  (* Restart the search from scratch (learned clauses, activities and
     saved phases persist); a previous Sat call leaves its trail in
     place for [value], so clear it here. *)
  backtrack s 0;
  if s.unsat then Unsat
    (* keep the cone captured when the database first became unsat *)
  else begin
    (match s.track with Some tr -> tr.cone <- None | None -> ());
    let assumps = Array.of_list assumptions in
    let status = ref None in
    let restart_idx = ref 0 in
    let conflicts_at_start = s.conflicts in
    while !status = None do
      let restart_budget = int_of_float (100. *. luby !restart_idx) in
      incr restart_idx;
      let local_conflicts = ref 0 in
      let restart = ref false in
      while !status = None && not !restart do
        let cid = propagate s in
        if cid >= 0 then begin
          s.conflicts <- s.conflicts + 1;
          incr local_conflicts;
          if decision_level s = 0 then begin
            (* A level-0 conflict involves no assumptions: the clause
               database itself is unsatisfiable, permanently. *)
            s.unsat <- true;
            (match s.track with
            | Some tr ->
              (* Empty clause = conflict clause resolved against the
                 unit derivations of each of its (all-false) literals. *)
              let deps =
                (if tr.cser.(cid) >= 0 then [ tr.cser.(cid) ] else [])
                @ Array.to_list
                    (Array.map
                       (fun l -> -1 - lit_var l)
                       s.clauses.(cid).lits)
              in
              let sa = track_add s None deps [||] in
              set_cone s [ sa ]
            | None -> ());
            status := Some Unsat
          end
          else begin
            let learned, btlevel, ants = analyze s cid in
            backtrack s btlevel;
            (match learned with
            | [ l ] ->
              let sa = track_add s None ants [| l |] in
              enqueue s l (-1);
              (match s.track with
              | Some tr -> tr.vser.(lit_var l) <- sa
              | None -> ())
            | l :: _ ->
              let arr = Array.of_list learned in
              let sa = track_add s None ants arr in
              let lid = add_clause_internal s arr true in
              (match s.track with
              | Some tr -> tr.cser.(lid) <- sa
              | None -> ());
              enqueue s l lid
            | [] ->
              let sa = track_add s None ants [||] in
              set_cone s [ sa ];
              status := Some Unsat);
            var_decay s;
            cla_decay s;
            if
              s.conflicts - s.last_reduce
              >= s.reduce_interval + (s.reduce_grow * s.reductions)
              && s.nlearned > 100
            then reduce_db s;
            if s.conflicts - conflicts_at_start >= max_conflicts then
              status := Some Unknown
            else if !local_conflicts >= restart_budget then restart := true
          end
        end
        else begin
          let dl = decision_level s in
          if dl < Array.length assumps then begin
            (* Assumption literals are decided first, in order, one per
               decision level (so restarts re-establish them). Learned
               clauses never resolve on assumption decisions, so clause
               learning stays sound across assumption sets. *)
            let al = assumps.(dl) in
            match lit_value s al with
            | 0 ->
              (* Implied false by the clauses + earlier assumptions:
                 unsat under these assumptions only. *)
              refute_assumption s dl al;
              status := Some Unsat
            | 1 ->
              (* Already implied true; keep the level/index alignment
                 with an empty decision level. *)
              Vec.push s.trail_lim (Vec.len s.trail)
            | _ ->
              Vec.push s.trail_lim (Vec.len s.trail);
              enqueue s al (-1)
          end
          else begin
            let v = pick_branch_var s in
            if v = -1 then status := Some Sat
            else begin
              Vec.push s.trail_lim (Vec.len s.trail);
              enqueue s (lit v s.phase.(v)) (-1)
            end
          end
        end
      done;
      if !restart && !status = None then backtrack s 0
    done;
    match !status with
    | Some Sat -> Sat (* trail left assigned for [value] *)
    | Some st ->
      backtrack s 0;
      st
    | None -> assert false
  end

let value s v = s.assigns.(v) = 1

(* Drop clauses satisfied by the level-0 assignment. Used by the
   incremental solver front end after retiring scope selectors: every
   clause guarded by a retired selector is satisfied at level 0 and can
   be removed wholesale instead of burdening every future propagation. *)
let simplify s =
  if not s.unsat then begin
    backtrack s 0;
    let cid = propagate s in
    if cid >= 0 then begin
      s.unsat <- true;
      match s.track with
      | Some tr ->
        let deps =
          (if tr.cser.(cid) >= 0 then [ tr.cser.(cid) ] else [])
          @ Array.to_list
              (Array.map (fun l -> -1 - lit_var l) s.clauses.(cid).lits)
        in
        let sa = track_add s None deps [||] in
        set_cone s [ sa ]
      | None -> ()
    end
    else
      for cid = 0 to s.nclauses - 1 do
        let c = s.clauses.(cid) in
        if
          (not c.deleted)
          && (not (locked s cid))
          && Array.exists (fun l -> lit_value s l = 1) c.lits
        then begin
          c.deleted <- true;
          if c.learned then begin
            s.nlearned <- s.nlearned - 1;
            s.learned_deleted <- s.learned_deleted + 1
          end
          else s.nproblem <- s.nproblem - 1
        end
      done
  end

(* {1 Cone accessors} *)

let last_cone_tags s =
  match s.track with
  | Some { cone = Some cone; tags; _ } ->
    let acc = Hashtbl.create 16 in
    Hashtbl.iter
      (fun ser () ->
        match Hashtbl.find_opt tags ser with
        | Some tag -> Hashtbl.replace acc tag ()
        | None -> ())
      cone;
    Hashtbl.fold (fun tag () l -> tag :: l) acc []
  | _ -> []

type trimmed = {
  nvars : int;
  cnf : int list list;
  steps : (int array * int array) list;
  goal : int array;
}

let trimmed_proof ?(assumptions = []) s =
  match s.track with
  | Some ({ cone = Some cone; _ } as tr) ->
    fill_positions s tr;
    let sers = Array.make (Hashtbl.length cone) 0 and n = ref 0 in
    Hashtbl.iter
      (fun ser () ->
        sers.(!n) <- ser;
        incr n)
      cone;
    Array.sort Int.compare sers;
    let ants = Array.map (Hashtbl.find_opt tr.ants) sers in
    (* Clause ids: the CNF in serial order, then the goal units, then
       the steps in serial order. *)
    let ncnf =
      Array.fold_left (fun n a -> if Option.is_none a then n + 1 else n) 0 ants
    in
    let next_cnf = ref 0 and next_step = ref (ncnf + List.length assumptions) in
    let ids =
      Array.map
        (fun a ->
          let r = if Option.is_none a then next_cnf else next_step in
          incr r;
          !r - 1)
        ants
    in
    let rec id_of ser lo hi =
      let mid = (lo + hi) / 2 in
      if lo > hi then invalid_arg "Sat.trimmed_proof: hint outside the cone"
      else if sers.(mid) < ser then id_of ser (mid + 1) hi
      else if sers.(mid) > ser then id_of ser lo (mid - 1)
      else ids.(mid)
    in
    let id ser = id_of ser 0 (Array.length sers - 1) in
    (* Renumber the cone's variables densely, in order of first
       occurrence: a long-lived context numbers every gate it ever
       encoded, a proof only needs the ones it mentions. *)
    let renamed = ref [] and nvars = ref 0 in
    let mlit l =
      let v = lit_var l in
      if tr.vmap.(v) < 0 then begin
        tr.vmap.(v) <- !nvars;
        incr nvars;
        renamed := v :: !renamed
      end;
      (2 * tr.vmap.(v)) lor (l land 1)
    in
    let cnf = ref [] and steps = ref [] in
    Array.iteri
      (fun i ser ->
        let c = Array.map mlit tr.log.(ser) in
        match ants.(i) with
        | Some a -> steps := (c, step_hints s tr a id) :: !steps
        | None -> cnf := Array.to_list c :: !cnf)
      sers;
    if tr.root_hints <> [||] then begin
      (* [-1 - j] is the goal unit of assumption [j], id [ncnf + j]. *)
      let hint r = if r >= 0 then id r else ncnf - 1 - r in
      steps := ([||], Array.map hint tr.root_hints) :: !steps
    end;
    let goal =
      Array.of_list (List.map (fun a -> mlit (lit_not a)) assumptions)
    in
    List.iter (fun v -> tr.vmap.(v) <- -1) !renamed;
    Some { nvars = !nvars; cnf = List.rev !cnf; steps = List.rev !steps; goal }
  | _ -> None
