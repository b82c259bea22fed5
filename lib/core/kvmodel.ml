(** The paper's treatment of mutable data structures (§3, "Element
    Verification"): model every private store as a key/value interface
    whose reads may return anything, find the "bad" values that violate
    the property (the fresh read variables appearing in a violating
    constraint), then {e go back and check whether any input could have
    caused a bad value to be written in the first place}.

    This module implements the write-back check: a violation whose
    constraint pins a value read from store [s] is refuted unless that
    value is the store default or some write in the owning element can
    produce it (for some packet, under that write's own path
    condition). One write step is checked — an over-approximation that
    never wrongly refutes, since any value ever present in a store is
    either its default or was produced by some write. *)

module T = Vdp_smt.Term
module Solver = Vdp_smt.Solver
module S = Vdp_symbex.Sstate
module Engine = Vdp_symbex.Engine

type provenance =
  | Default_value
  | Written of string  (** description of a producing write *)
  | Unwritable  (** neither default nor writable: value impossible *)

(* Rename a writing packet's variables so they do not collide with the
   violating packet's. *)
let rename_writer t =
  T.rename_vars
    (fun n ->
      if S.is_internal n then "!w" ^ n
      else if
        n = S.len_var
        || (String.length n > 2 && String.sub n 0 2 = "p[")
        || (String.length n > 2 && String.sub n 0 2 = "p.")
      then "w." ^ n
      else n)
    t

(** All writes to [store] across the element's segments, as
    (renamed path condition, renamed written value). *)
let writes_to ~(summary : Engine.result) store =
  List.concat_map
    (fun (seg : Engine.segment) ->
      List.filter_map
        (function
          | S.Kv_write { store = s; cond; value; _ } when s = store ->
            Some (rename_writer cond, rename_writer value)
          | S.Kv_write _ | S.Kv_read _ -> None)
        seg.Engine.kv_log)
    summary.Engine.segments

(** Can the violating constraint actually occur, given where values in
    [store] come from? [read_var] is the fresh variable the read
    returned; [default] the store's declared default. *)
let check_provenance ?(max_conflicts = 2_000_000) ~(summary : Engine.result)
    ~store ~default ~(read_var : T.t) violation_cond : provenance =
  if
    Solver.is_sat ~max_conflicts
      (T.eq read_var (T.bv default) :: violation_cond)
  then Default_value
  else begin
    let rec try_writes i = function
      | [] -> Unwritable
      | (wcond, wval) :: rest ->
        if
          Solver.is_sat ~max_conflicts
            (wcond :: T.eq read_var wval :: violation_cond)
        then Written (Printf.sprintf "write #%d to store %s" i store)
        else try_writes (i + 1) rest
    in
    try_writes 0 (writes_to ~summary store)
  end
