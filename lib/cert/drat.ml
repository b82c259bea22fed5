(* Independent forward RUP proof checker.

   This module is the trusted base of the certificate subsystem: it
   validates the trimmed proofs read out of the CDCL core's antecedent
   log without sharing any code with it. Everything is deliberately
   different from [lib/smt/sat.ml] — each literal keeps the full list
   of clauses it occurs in (no two-watched-literal scheme, no in-place
   literal reordering), the assignment is a var-indexed 0/1/2 array
   rather than the solver's xor-coded literal values, and unit
   propagation rescans whole clauses instead of juggling watches.
   Slower, but small enough to audit.

   Literal encoding is shared *data format* (variable [v] is literal
   [2v] positive, [2v+1] negative) so proofs need no translation.

   Checking is the standard forward pass over a clause database that
   only grows: each step must be RUP (assuming its negation and
   unit-propagating the current database yields a conflict), and is
   then added. The proof is accepted once the database is conflicting
   at the root, i.e. the empty clause is derivable; steps after that
   point are not needed and are not checked. A proof may instead
   establish a goal clause: its negation is then added, as unit
   clauses, before the first step, so the proof refutes the CNF
   together with the goal's negation. There are no deletions and no
   RAT steps: the producer never deletes from a trimmed proof, and
   every clause it derives is RUP, so anything else is rejected. *)

let neg l = l lxor 1
let var l = l lsr 1

(* Assignment codes. *)
let unknown = 0
let v_true = 1
let v_false = 2

type db = {
  occ : int array list array;  (* literal -> clauses containing it *)
  assign : int array;  (* var -> unknown / v_true / v_false *)
  trail : int array;  (* literals assigned true, in order *)
  mutable trail_len : int;
}

let create nvars =
  {
    occ = Array.make (2 * nvars) [];
    assign = Array.make nvars unknown;
    trail = Array.make nvars 0;
    trail_len = 0;
  }

let lit_state db l =
  let a = db.assign.(var l) in
  if a = unknown then unknown
  else if (a = v_true) = (l land 1 = 0) then v_true
  else v_false

(* Make [l] true; caller guarantees it is currently unknown. *)
let assign_true db l =
  db.assign.(var l) <- (if l land 1 = 0 then v_true else v_false);
  db.trail.(db.trail_len) <- l;
  db.trail_len <- db.trail_len + 1

let undo_to db mark =
  for i = db.trail_len - 1 downto mark do
    db.assign.(var db.trail.(i)) <- unknown
  done;
  db.trail_len <- mark

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

(* Propagate from trail position [q]; [true] on conflict. Visits, for
   each newly-true literal, every clause containing its negation. *)
let rec propagate db q =
  q < db.trail_len
  && (List.exists
        (fun c ->
          match scan_clause db c with
          | Conflict -> true
          | Unit u ->
            assign_true db u;
            false
          | Satisfied | Open -> false)
        db.occ.(neg db.trail.(q))
     || propagate db (q + 1))

(* RUP test: assume the negation of every literal of [lits] on top of
   the root assignment and propagate; [true] iff that conflicts. The
   trail is restored before returning. *)
let rup db lits =
  let mark = db.trail_len in
  let conflict =
    Array.exists
      (fun l ->
        let s = lit_state db l in
        if s = unknown then assign_true db (neg l);
        s = v_true)
      lits
    || propagate db mark
  in
  undo_to db mark;
  conflict

(* Add [lits] to the database and extend the root assignment with what
   it implies; [true] iff the database is now conflicting at the root. *)
let add db lits =
  Array.iter (fun l -> db.occ.(l) <- lits :: db.occ.(l)) lits;
  match scan_clause db lits with
  | Conflict -> true
  | Unit u ->
    assign_true db u;
    propagate db (db.trail_len - 1)
  | Satisfied | Open -> false

type outcome = (unit, string) result

let error fmt = Printf.ksprintf (fun s -> Error s) fmt

(* [check ~nvars ~cnf steps] validates a forward RUP proof over [cnf],
   whose literals, like those of [goal] and [steps], must lie in
   [0, 2 * nvars). [goal] is what the proof establishes: the CNF
   implies it. Its default, the empty clause, makes the proof a
   refutation of the CNF; a refutation under assumptions [a1..ak]
   establishes [~a1 \/ .. \/ ~ak] instead. *)
let check ?(goal = [||]) ~nvars ~cnf (steps : int array list) : outcome =
  let in_range l = l >= 0 && var l < nvars in
  if
    not
      (List.for_all (List.for_all in_range) cnf
      && Array.for_all in_range goal
      && List.for_all (Array.for_all in_range) steps)
  then error "literal out of range for %d variables" nvars
  else
    let db = create nvars in
    let rec go i = function
      | [] -> error "no empty clause derived"
      | lits :: rest ->
        if not (rup db lits) then error "step %d: clause is not RUP" i
        else if add db lits then Ok ()
        else go (i + 1) rest
    in
    if
      List.exists (fun c -> add db (Array.of_list c)) cnf
      || Array.exists (fun l -> add db [| neg l |]) goal
    then Ok ()
    else go 0 steps
