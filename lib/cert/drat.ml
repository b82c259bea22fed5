(* Independent forward RUP/DRAT proof checker.

   This module is the trusted base of the certificate subsystem: it
   validates the proof traces emitted by the CDCL core without sharing
   any code with it. Everything is deliberately different from
   [lib/smt/sat.ml] — clauses live in a flat arena with full per-literal
   occurrence lists (no two-watched-literal scheme, no in-place literal
   reordering), the assignment is a var-indexed 0/1/2 array rather than
   the solver's xor-coded literal values, and unit propagation rescans
   whole clauses instead of juggling watches. Slower, but small enough
   to audit.

   Literal encoding is shared *data format* (variable [v] is literal
   [2v] positive, [2v+1] negative) so traces need no translation.

   Checking is the standard forward pass: each added clause must be RUP
   (assuming its negation and unit-propagating the current database
   yields a conflict) or, failing that, RAT on its first literal; each
   deletion must name a clause actually present (set-equal literals).
   The trace is accepted only if it derives the empty clause and, when
   the caller knows how many deletions the producer performed, the
   deletion count matches, which is what catches a producer that
   silently drops clauses without logging them. A trace may instead
   establish a goal clause: its negation is then assumed, as unit
   clauses, before the first step, so the trace refutes the CNF
   together with the goal's negation. Steps after the
   derivation are applied without inference checks (this checker's
   eager root propagation can conflict before the lazier producer
   notices, so a valid trace may continue past that point), but they
   still have to be well-formed: deletions must resolve and are
   counted. *)

type step = Add of int array | Delete of int array

let neg l = l lxor 1
let var l = l lsr 1

(* Assignment codes. *)
let unknown = 0
let v_true = 1
let v_false = 2

type db = {
  mutable clauses : int array array;  (* arena; never shrinks *)
  mutable alive : bool array;
  mutable n : int;  (* arena entries used *)
  mutable live : int;  (* alive clauses *)
  mutable occ : int list array;  (* literal -> arena indices *)
  mutable index : (int list, int list ref) Hashtbl.t option;
      (* sorted literals -> live arena indices, for deletion lookup;
         built on the first deletion step — backward-trimmed traces
         contain none, so they never pay for keying inserts *)
  mutable assign : int array;  (* var -> unknown / v_true / v_false *)
  mutable trail : int array;  (* literals assigned true, in order *)
  mutable trail_len : int;
  mutable root_len : int;  (* trail prefix implied by the database *)
  mutable dirty : bool;  (* deletions may have orphaned root units *)
}

let create () =
  {
    clauses = Array.make 64 [||];
    alive = Array.make 64 false;
    n = 0;
    live = 0;
    occ = Array.make 128 [];
    index = None;
    assign = Array.make 64 unknown;
    trail = Array.make 64 0;
    trail_len = 0;
    root_len = 0;
    dirty = false;
  }

let ensure_var db v =
  if v >= Array.length db.assign then begin
    let arr = Array.make (max (v + 1) (2 * Array.length db.assign)) unknown in
    Array.blit db.assign 0 arr 0 (Array.length db.assign);
    db.assign <- arr
  end;
  if (2 * v) + 1 >= Array.length db.occ then begin
    let arr = Array.make (max ((2 * v) + 2) (2 * Array.length db.occ)) [] in
    Array.blit db.occ 0 arr 0 (Array.length db.occ);
    db.occ <- arr
  end

(* Occurrences of literal [l]; a literal the database has never seen
   simply occurs nowhere. *)
let occ_ids db l = if l < Array.length db.occ then db.occ.(l) else []

let lit_state db l =
  let a = db.assign.(var l) in
  if a = unknown then unknown
  else if (a = v_true) = (l land 1 = 0) then v_true
  else v_false

let push_trail db l =
  if db.trail_len = Array.length db.trail then begin
    let arr = Array.make (2 * db.trail_len) 0 in
    Array.blit db.trail 0 arr 0 db.trail_len;
    db.trail <- arr
  end;
  db.trail.(db.trail_len) <- l;
  db.trail_len <- db.trail_len + 1

(* Make [l] true; caller guarantees it is currently unknown. *)
let assign_true db l =
  ensure_var db (var l);
  db.assign.(var l) <- (if l land 1 = 0 then v_true else v_false);
  push_trail db l

let undo_to db mark =
  for i = db.trail_len - 1 downto mark do
    db.assign.(var db.trail.(i)) <- unknown
  done;
  db.trail_len <- mark

let sorted_key lits = List.sort Stdlib.compare (Array.to_list lits)

let index_add index key id =
  let r =
    match Hashtbl.find_opt index key with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add index key r;
      r
  in
  r := id :: !r

let insert db lits =
  if db.n = Array.length db.clauses then begin
    let cl = Array.make (2 * db.n) [||] in
    Array.blit db.clauses 0 cl 0 db.n;
    db.clauses <- cl;
    let al = Array.make (2 * db.n) false in
    Array.blit db.alive 0 al 0 db.n;
    db.alive <- al
  end;
  let id = db.n in
  db.clauses.(id) <- lits;
  db.alive.(id) <- true;
  db.n <- id + 1;
  db.live <- db.live + 1;
  Array.iter
    (fun l ->
      ensure_var db (var l);
      db.occ.(l) <- id :: db.occ.(l))
    lits;
  (match db.index with
  | None -> ()
  | Some index -> index_add index (sorted_key lits) id);
  id

(* First deletion: key every live clause. Ids are pushed in arena order,
   so the head of each bucket is the most recent insert — the same
   clause a per-insert index would have deleted first. *)
let build_index db =
  let index = Hashtbl.create 256 in
  for id = 0 to db.n - 1 do
    if db.alive.(id) then index_add index (sorted_key db.clauses.(id)) id
  done;
  db.index <- Some index;
  index

let delete db lits =
  let index = match db.index with Some i -> i | None -> build_index db in
  let key = sorted_key lits in
  match Hashtbl.find_opt index key with
  | Some ({ contents = id :: rest } as r) ->
    r := rest;
    db.alive.(id) <- false;
    db.live <- db.live - 1;
    (* Root units propagated through this clause are no longer
       supported; rebuild the root assignment lazily. *)
    db.dirty <- true;
    true
  | _ -> false

(* Scan one clause under the current assignment. A second unassigned
   literal settles it as [Open] (or satisfied, which no caller tells
   apart), so the scan stops there. *)
type scan = Satisfied | Conflict | Unit of int | Open

let scan_clause db lits =
  let unassigned = ref 0 and the_lit = ref 0 and sat = ref false in
  let i = ref 0 and len = Array.length lits in
  while (not !sat) && !unassigned < 2 && !i < len do
    (match lit_state db lits.(!i) with
    | s when s = v_true -> sat := true
    | s when s = unknown ->
      incr unassigned;
      the_lit := lits.(!i)
    | _ -> ());
    incr i
  done;
  if !sat then Satisfied
  else if !unassigned = 0 then Conflict
  else if !unassigned = 1 then Unit !the_lit
  else Open

(* Propagate from [qhead]; returns [true] on conflict. Visits, for each
   newly-true literal, every clause containing its negation. *)
let propagate db qhead =
  let conflict = ref false in
  let q = ref qhead in
  while (not !conflict) && !q < db.trail_len do
    let l = db.trail.(!q) in
    incr q;
    List.iter
      (fun id ->
        if (not !conflict) && db.alive.(id) then
          match scan_clause db db.clauses.(id) with
          | Conflict -> conflict := true
          | Unit u -> assign_true db u
          | Satisfied | Open -> ())
      (occ_ids db (neg l))
  done;
  !conflict

(* Re-derive the database's unit-implied assignment from scratch:
   required initially and after any deletion (a deleted clause may have
   been the sole support of a root unit — keeping such units would make
   the checker unsound). Returns [true] if the database is conflicting
   at the root, i.e. the empty clause is derivable. *)
let rebuild_root db =
  undo_to db 0;
  db.root_len <- 0;
  db.dirty <- false;
  let conflict = ref false in
  (* Seed with every unit/empty clause, then run the fixpoint; cascades
     may make further clauses unit, so rescan until stable. *)
  let changed = ref true in
  while (not !conflict) && !changed do
    changed := false;
    for id = 0 to db.n - 1 do
      if (not !conflict) && db.alive.(id) then
        match scan_clause db db.clauses.(id) with
        | Conflict -> conflict := true
        | Unit u ->
          assign_true db u;
          changed := true
        | Satisfied | Open -> ()
    done;
    if (not !conflict) && !changed then
      conflict := propagate db 0
  done;
  db.root_len <- db.trail_len;
  !conflict

(* RUP test: assume the negation of every literal of [lits] on top of
   the root assignment and propagate; [true] iff that conflicts. The
   trail is restored before returning. *)
let rup db lits =
  let mark = db.trail_len in
  let conflict = ref false in
  Array.iter
    (fun l ->
      if not !conflict then
        match lit_state db l with
        | s when s = v_true -> conflict := true
        | s when s = unknown -> assign_true db (neg l)
        | _ -> ())
    lits;
  let conflict = !conflict || propagate db mark in
  undo_to db mark;
  conflict

(* RAT test on the first literal: every resolvent of [lits] with a live
   clause containing the negated pivot must itself be RUP. *)
let rat db lits =
  Array.length lits > 0
  &&
  let pivot = lits.(0) in
  let ok = ref true in
  List.iter
    (fun id ->
      if !ok && db.alive.(id) then begin
          let d = db.clauses.(id) in
          let resolvent =
            Array.append lits
              (Array.of_seq
                 (Seq.filter (fun l -> l <> neg pivot) (Array.to_seq d)))
          in
          (* A tautological resolvent is vacuously fine: the RUP test
             below treats it as an immediate conflict when it assumes
             both polarities. *)
          let tautology =
            Array.exists
              (fun l -> Array.exists (fun m -> m = neg l) resolvent)
              resolvent
          in
          if not (tautology || rup db resolvent) then ok := false
        end)
    (occ_ids db (neg pivot));
  !ok

type outcome = (unit, string) result

let error fmt = Printf.ksprintf (fun s -> Error s) fmt

(* [check ~nvars ~cnf ~steps] validates a forward DRAT trace over the
   recorded CNF. [expected_deletions], when given, must equal the
   number of deletion steps successfully applied — producers record the
   solver's own deletion counters there, so a deletion performed but
   not logged (or logged but not performed) is caught. [goal] is what
   the trace establishes: the CNF implies it. Its default, the empty
   clause, makes the trace a refutation of the CNF; a refutation under
   assumptions [a1..ak] establishes [~a1 \/ .. \/ ~ak] instead. *)
let check ?expected_deletions ?(goal = [||]) ~nvars ~cnf steps : outcome =
  let db = create () in
  ensure_var db (max 0 (nvars - 1));
  List.iter (fun lits -> ignore (insert db (Array.of_list lits))) cnf;
  Array.iter (fun l -> ignore (insert db [| neg l |])) goal;
  let derived_empty = ref (rebuild_root db) in
  let ndel = ref 0 in
  let err = ref None in
  List.iteri
    (fun i step ->
      if !err = None then
        match step with
        | Add lits when !derived_empty ->
          (* The proof is already complete; keep the database in step so
             later deletions still resolve, but infer nothing. *)
          if Array.length lits > 0 then ignore (insert db lits)
        | Add lits ->
          if db.dirty then derived_empty := rebuild_root db;
          if !derived_empty then (
            if Array.length lits > 0 then ignore (insert db lits))
          else if not (rup db lits || rat db lits) then
            err :=
              Some
                (Printf.sprintf "step %d: clause is neither RUP nor RAT" i)
          else if Array.length lits = 0 then derived_empty := true
          else begin
            ignore (insert db lits);
            (* Keep the root assignment current: a freshly added unit
               (or a clause unit under the root) extends it, possibly
               to a conflict — which is a derivation of the empty
               clause. *)
            match scan_clause db lits with
            | Unit u ->
              assign_true db u;
              if propagate db (db.trail_len - 1) then derived_empty := true
              else db.root_len <- db.trail_len
            | Conflict -> derived_empty := true
            | Satisfied | Open -> ()
          end
        | Delete lits ->
          if delete db lits then incr ndel
          else err := Some (Printf.sprintf "step %d: deleting absent clause" i))
    steps;
  match !err with
  | Some e -> Error e
  | None ->
    if not !derived_empty then error "no empty clause derived"
    else (
      match expected_deletions with
      | Some d when d <> !ndel ->
        error "deletion mismatch: %d logged, %d expected" !ndel d
      | _ -> Ok ())
