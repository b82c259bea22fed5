(* Independent LRAT proof checker.

   This module is the trusted base of the certificate subsystem: it
   validates the trimmed proofs read out of the CDCL core's antecedent
   log without sharing any code with it. Each step of a proof carries
   its hints, the ids of the earlier clauses whose unit propagation
   derives it (the LRAT format: Cruz-Filipe et al., "Efficient
   Certified RAT Verification", CADE 2017). Checking a step visits
   exactly those clauses, once each, in order: there is no search, no
   occurrence list and no watch, so the checker is small enough to
   audit and its work is linear in the size of the hints.

   Literal encoding is shared *data format* (variable [v] is literal
   [2v] positive, [2v+1] negative) so proofs need no translation.

   Clause ids number the CNF clauses from 0, then the goal's negated
   literals as unit clauses, then the steps. Each step is checked on its
   own: its literals are assumed false, and each hint in turn must be
   unit under the assignment so far (its open literal is then made
   true) or falsified (the step is accepted). A hint that is satisfied,
   has two open literals, or names no earlier clause is rejected, and so
   is a step whose hints run out without a conflict. The proof is
   accepted at its first empty step; steps after it are not checked.
   There are no deletions and no RAT steps: the producer never deletes
   from a trimmed proof, and every clause it derives is RUP. *)

let neg l = l lxor 1
let var l = l lsr 1

type outcome = (unit, string) result

let error fmt = Printf.ksprintf (fun s -> Error s) fmt

(* [check ~nvars ~cnf steps] validates an LRAT proof over [cnf], whose
   literals, like those of [goal] and of the steps, must lie in
   [0, 2 * nvars). Each step is its literals and its hints. [goal] is
   what the proof establishes: the CNF implies it. Its default, the
   empty clause, makes the proof a refutation of the CNF; a refutation
   under assumptions [a1..ak] establishes [~a1 \/ .. \/ ~ak] instead. *)
let check ?(goal = [||]) ~nvars ~cnf (steps : (int array * int array) list)
    : outcome =
  let in_range l = l >= 0 && var l < nvars in
  if
    not
      (List.for_all (List.for_all in_range) cnf
      && Array.for_all in_range goal
      && List.for_all (fun (lits, _) -> Array.for_all in_range lits) steps)
  then error "literal out of range for %d variables" nvars
  else
    let db =
      Array.concat
        [
          Array.of_list (List.map Array.of_list cnf);
          Array.map (fun l -> [| neg l |]) goal;
          Array.of_list (List.map fst steps);
        ]
    in
    let first_step = Array.length db - List.length steps in
    (* [truth.(l)]: literal [l] is assigned true. *)
    let truth = Array.make (2 * nvars) false in
    let trail = Array.make nvars 0 and assigned = ref 0 in
    let make_true l =
      truth.(l) <- true;
      trail.(!assigned) <- l;
      incr assigned
    in
    (* Visit [hints] from [i] on for the step with id [id]. *)
    let rec visit id hints i =
      if i = Array.length hints then error "hints reach no conflict"
      else
        let h = hints.(i) in
        if h < 0 || h >= Array.length db then error "hint %d out of range" h
        else if h >= id then
          error "hint %d %s" h
            (if h = id then "names the step itself" else "points forward")
        else
          let c = db.(h) in
          let satisfied = ref false and opened = ref 0 and last = ref 0 in
          for j = 0 to Array.length c - 1 do
            let l = c.(j) in
            if truth.(l) then satisfied := true
            else if not truth.(neg l) then begin
              incr opened;
              last := l
            end
          done;
          if !satisfied then error "hint %d is satisfied" h
          else if !opened = 0 then Ok ()
          else if !opened > 1 then error "hint %d is not unit" h
          else begin
            make_true !last;
            visit id hints (i + 1)
          end
    in
    let rec go k = function
      | [] -> error "no empty clause derived"
      | (lits, hints) :: rest -> (
        (* A clause holding both [l] and [~l] needs no hints. *)
        let tautology =
          Array.exists
            (fun l ->
              if not (truth.(l) || truth.(neg l)) then make_true (neg l);
              truth.(l))
            lits
        in
        let r = if tautology then Ok () else visit (first_step + k) hints 0 in
        for i = 0 to !assigned - 1 do
          truth.(trail.(i)) <- false
        done;
        assigned := 0;
        match r with
        | Error e -> error "step %d: %s" k e
        | Ok () -> if lits = [||] then Ok () else go (k + 1) rest)
    in
    go 0 steps
