(** Step 2 of the paper: stitching per-element segment summaries into
    whole-pipeline paths {e without re-executing any code}.

    A composite packet state maps the current element's input window
    back to terms over the pipeline's original input variables
    ([p\[j\]], [p.len], metadata). Applying a segment (1) renames the
    segment's internal variables (key/value reads, havoc values) so
    different positions cannot collide, (2) substitutes the current
    state into the segment's constraints and transformations, and (3)
    advances the state by the segment's writes and head/length changes.
    Feasibility of the accumulated constraint is decided by the
    bit-vector solver. *)

module B = Vdp_bitvec.Bitvec
module T = Vdp_smt.Term
module S = Vdp_symbex.Sstate
module Engine = Vdp_symbex.Engine
module Ir = Vdp_ir.Types

type background =
  | Input of int  (** shift: window offset [j] is input byte [j + shift] *)
  | Havoc of string * int
      (** renamed havoc prefix and shift relative to the havoc window *)

type t = {
  background : background;
  overrides : (int, T.t) Hashtbl.t;  (** window offset -> byte term *)
  len : T.t;
  meta : (Ir.meta * T.t) list;
  cond : T.t list;
      (** accumulated constraints, {e newest first}; the tail beyond
          [new_cond] physically shares the predecessor state's list, so
          a deep path costs O(|segment|) per step, not O(|path|) *)
  new_cond : T.t list;
      (** the constraints contributed by the latest {!apply} (or the
          assumptions of {!initial}) — exactly the delta a caller must
          assert into a fresh incremental solver scope *)
  instr_lo : int;
  instr_hi : int;
  summarized : bool;
      (** the instruction interval over-approximates: a loop summary
          contributed, or the last segment {!dips} ({!finish}) *)
  kv_trace : (string * S.kv_event) list;
      (** (position tag, renamed event), newest first *)
  trail : string list;
      (** position tags of the segments applied so far, newest first —
          the node path this composite state predicts *)
  headroom : int;
      (** remaining headroom budget in bytes: the configured headroom
          plus the accumulated net head deltas of the applied segments.
          Every element's own symbex assumes it starts with the {e full}
          configured headroom, so composition must re-check each
          segment's worst push excursion against this remaining budget. *)
  static_deps : (int * B.t) list;
      (** union of the static-state slices ({!Vdp_ir.Static_data} id,
          concrete key) baked into the segments applied so far — the
          tag a Step-2 query-cache entry built from this state carries,
          so a rule change invalidates exactly the dependent entries *)
}

let initial ?(assume = []) ?(meta = [])
    ?(headroom = Vdp_packet.Packet.default_headroom) () =
  {
    background = Input 0;
    overrides = Hashtbl.create 16;
    len = T.var S.len_var 16;
    meta;
    cond = assume;
    new_cond = assume;
    instr_lo = 0;
    instr_hi = 0;
    summarized = false;
    kv_trace = [];
    trail = [];
    headroom;
    static_deps = [];
  }

(** Byte [j] of the current window as a term over original inputs. *)
let byte st j =
  match Hashtbl.find_opt st.overrides j with
  | Some t -> t
  | None -> (
    match st.background with
    | Input shift ->
      if j + shift >= 0 then T.var (S.byte_var (j + shift)) 8
      else T.bv (B.zero 8) (* pushed-in headroom bytes are zeroed *)
    | Havoc (prefix, shift) ->
      if j + shift >= 0 then T.var (Printf.sprintf "%s_%d" prefix (j + shift)) 8
      else T.bv (B.zero 8))

let meta_term st m =
  match List.assoc_opt m st.meta with
  | Some t -> t
  | None -> T.var (S.meta_var m) (Ir.meta_width m)

(** Rewrite one of the segment's terms into pipeline-input terms, in a
    single walk: internal variables (key/value reads, havoc values) are
    renamed with the position tag so different positions cannot
    collide, and packet variables are substituted with the current
    composite state. Partial application [import st ~tag] fixes one
    memo table, so a batch of terms from the same segment — its
    constraints, writes, length and state events, which share most of
    their structure — is rewritten in one DAG traversal total. *)
let import st ~tag =
  let memo = Hashtbl.create 256 in
  let lookup n (sort : Vdp_smt.Sort.t) =
    if S.is_internal n then
      let n' = "!" ^ tag ^ n in
      Some
        (match sort with
        | Vdp_smt.Sort.Bool -> T.bool_var n'
        | Vdp_smt.Sort.Bv w -> T.var n' w)
    else if n = S.len_var then Some st.len
    else if String.length n > 3 && String.sub n 0 2 = "p[" then begin
      match int_of_string_opt (String.sub n 2 (String.length n - 3)) with
      | Some j -> Some (byte st j)
      | None -> None
    end
    else
      match
        List.find_opt (fun m -> S.meta_var m = n)
          [ Ir.Port; Ir.Color; Ir.W0; Ir.W1 ]
      with
      | Some m -> Some (meta_term st m)
      | None -> None
  in
  fun term -> T.substitute_vars ~memo lookup term

(** One element's position on one path: the state its segments are
    applied to, and the import they share. The segments of one summary
    fork from common prefixes, so their constraints share most of their
    structure, and one memo rewrites each shared subterm once. A site
    lives only while its node is expanded, on the domain expanding it. *)
type site = {
  from : t;
  tag : string;
  xf : T.t -> T.t;  (** [import from ~tag] *)
  deps : (int * B.t) list;
      (** [from]'s static-state slices plus the element's ({!apply}) *)
}

let site ?(deps = []) st ~tag =
  let fresh =
    List.filter
      (fun (sid, k) ->
        not
          (List.exists
             (fun (sid', k') -> sid = sid' && B.equal k k')
             st.static_deps))
      deps
  in
  { from = st; tag; xf = import st ~tag; deps = fresh @ st.static_deps }

(** A segment applied as far as pruning needs ({!guard}): its
    constraints imported, nothing else. {!finish} builds the rest of
    the successor through the same import, so a survivor's terms are
    substituted once and a pruned successor's packet, length, metadata
    and state events never are. *)
type guarded = {
  g_site : site;
  g_seg : Engine.segment;
  g_new_cond : T.t list;  (** the successor's [new_cond] *)
  g_cond : T.t list;  (** the successor's [cond] *)
}

(** Whether [seg]'s worst push dips below [st]'s remaining headroom,
    with no substitution: the runtime then crashes with
    [Headroom_exhausted] inside [seg], though [seg]'s own summary
    (which assumed the full budget) does not. *)
let dips st (seg : Engine.segment) =
  st.headroom + seg.Engine.out_state.Engine.min_delta < 0

(** Apply a segment's constraints at a site. *)
let guard site (seg : Engine.segment) =
  let new_cond = List.map site.xf seg.Engine.cond in
  {
    g_site = site;
    g_seg = seg;
    g_new_cond = new_cond;
    g_cond = List.rev_append new_cond site.from.cond;
  }

(** Cheap infeasibility filter for pruning during path enumeration:
    constant folding and interval refutation of the guarded successor's
    path condition, decided on its conjunct list. *)
let plausible g = not (Vdp_smt.Interval.refute_list g.g_cond)

(** The state {e after} a guarded segment (meaningful when its outcome
    emits). After a segment that {!dips}, the runtime has executed only
    part of it, so the state claims the interval from the predecessor's
    low end to its own high end, and is [summarized]. *)
let finish g =
  let { from = st; tag; xf; deps } = g.g_site and seg = g.g_seg in
  let out = seg.Engine.out_state in
  let delta = out.Engine.head_delta in
  let short = dips st seg in
  (* Background and carried-over overrides. *)
  let background, overrides =
    match out.Engine.havoc with
    | Some (epoch, head) ->
      (* All unwritten bytes become the segment's havoc variables,
         renamed with the position tag; offset j is absolute head+j. *)
      (Havoc (Printf.sprintf "!%s!hv%d" tag epoch, head), Hashtbl.create 16)
    | None ->
      let o' = Hashtbl.create (Hashtbl.length st.overrides) in
      Hashtbl.iter
        (fun j v ->
          let j' = j - delta in
          if j' >= 0 then Hashtbl.replace o' j' v)
        st.overrides;
      let bg =
        match st.background with
        | Input shift -> Input (shift + delta)
        | Havoc (p, shift) -> Havoc (p, shift + delta)
      in
      (bg, o')
  in
  List.iter
    (fun (j, term) -> Hashtbl.replace overrides j (xf term))
    out.Engine.writes;
  let meta =
    List.fold_left
      (fun acc (m, term) -> (m, xf term) :: List.remove_assoc m acc)
      st.meta out.Engine.meta_out
  in
  let kv_new =
    List.map
      (fun ev ->
        let ev' =
          match ev with
          | S.Kv_read { store; key; value; cond } ->
            S.Kv_read
              { store; key = xf key; value = xf value; cond = xf cond }
          | S.Kv_write { store; key; value; cond } ->
            S.Kv_write
              { store; key = xf key; value = xf value; cond = xf cond }
        in
        (tag, ev'))
      seg.Engine.kv_log
  in
  {
    background;
    overrides;
    len = xf out.Engine.len_out;
    meta;
    cond = g.g_cond;
    new_cond = g.g_new_cond;
    instr_lo =
      (if short then st.instr_lo else st.instr_lo + seg.Engine.instr_lo);
    instr_hi = st.instr_hi + seg.Engine.instr_hi;
    summarized = short || st.summarized || seg.Engine.summarized;
    kv_trace = List.rev_append kv_new st.kv_trace;
    trail = tag :: st.trail;
    headroom = st.headroom + delta;
    static_deps = deps;
  }

(** The successor entering the next element on input [port], which the
    runtime writes into the port annotation on every edge it follows:
    elements branching on it (the NAT gateway) then compose exactly. *)
let enter port g =
  let st = finish g in
  let meta = List.remove_assoc Ir.Port st.meta in
  { st with meta = (Ir.Port, T.bv_int ~width:8 port) :: meta }

(** Apply a segment summary at pipeline position [tag], entering the
    next element on [port] if given. [deps] is the element's
    static-state slice list (from its {!Engine.result}), unioned into
    the composite state. *)
let apply ?deps ?port st ~tag seg =
  let g = guard (site ?deps st ~tag) seg in
  match port with Some port -> enter port g | None -> finish g

(** Build a concrete input packet from a solver model of the composite
    constraint, reading its variables behind [prefix]. Bytes the model
    leaves free default to zero. *)
let witness_packet ?(prefix = "") (m : Vdp_smt.Model.t) ~max_len =
  let value name = Vdp_smt.Model.bv_opt m (prefix ^ name) in
  let len =
    match value S.len_var with
    | Some v -> min (B.to_int_trunc v) max_len
    | None -> 0
  in
  let data =
    String.init len (fun j ->
        match value (S.byte_var j) with
        | Some v -> Char.chr (B.to_int_trunc v land 0xff)
        | None -> '\000')
  in
  let pkt = Vdp_packet.Packet.create data in
  (match value (S.meta_var Ir.Port) with
  | Some v -> pkt.Vdp_packet.Packet.port <- B.to_int_trunc v
  | None -> ());
  pkt
