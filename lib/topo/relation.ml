(** Per-pipeline transfer relations, composed across the fabric.

    The verifier's Step-2 traversal composes element summaries along
    the paths of a property's node graph. This module supplies the
    fabric's node graph: {!expand} is a {!Vdp_verif.Verifier.property}
    expand step whose node is a (pipe, node, crossings) hop, so a link
    crossing is one more [Descend] and the verifier's sequential and
    parallel drivers walk fabric paths exactly as they walk pipeline
    paths. Composite states carry position tags ["p<pipe>n<node>"]
    ({!Fabric.tag}), so all of Compose — headroom accounting,
    static-slice deps, the kv event trace, instruction intervals, the
    node trail — works unchanged over the composed fabric.

    Two things are new relative to single-pipeline Step 2:

    - {b Boot semantics} ({!ground_boot}): relational properties like
      isolation are claims about runs {e from boot state}, not from an
      adversarially chosen store state. For every private-store read in
      a path's kv trace we assert that the value returned is exactly
      what the chain of earlier writes (else the declared initial
      contents) produces for that key. Static stores keep the engine's
      treatment: concrete-key reads are baked at summary time,
      symbolic-key reads stay adversarial — sound for [Proved], and any
      spurious breach dies in mandatory concrete replay.

    - {b Multi-packet composition} ({!query_terms}): a
      second ("prime") packet's path is composed as usual and then all
      its variables are renamed behind {!prime_prefix}; concatenating
      its (renamed) kv events in front of the attack packet's and
      grounding the combined trace couples the two runs through the
      store — exactly "the NAT answers inbound flows only after an
      outbound packet has primed the mapping". *)

module B = Vdp_bitvec.Bitvec
module T = Vdp_smt.Term
module Model = Vdp_smt.Model
module S = Vdp_symbex.Sstate
module Engine = Vdp_symbex.Engine
module Ir = Vdp_ir.Types
module Pipeline = Vdp_click.Pipeline
module Element = Vdp_click.Element
module Compose = Vdp_verif.Compose
module Summaries = Vdp_verif.Summaries
module Staleness = Vdp_verif.Staleness

type t = {
  fab : Fabric.t;
  summaries : Summaries.entry array array;  (** per pipe, per node *)
  config : Engine.config;
}

(** Summarize every pipeline of the fabric (Step 1, shared cache). *)
let build ?pool ?(config = Engine.default_config) (fab : Fabric.t) =
  Staleness.install ();
  {
    fab;
    summaries =
      Array.map
        (fun (p : Fabric.pipe) ->
          Summaries.of_pipeline ?pool ~config p.Fabric.p_pl)
        fab.Fabric.pipes;
    config;
  }

let any_incomplete rel =
  Array.exists
    (fun per_pipe ->
      Array.exists
        (fun (e : Summaries.entry) ->
          e.Summaries.result.Engine.incomplete > 0)
        per_pipe)
    rel.summaries

(* {1 Fabric paths} *)

type fend =
  | E_egress of int * int  (** (pipe, egress index), unlinked *)
  | E_drop of int * int  (** (pipe, node) *)
  | E_crash of int * int * Engine.crash

type fpath = { fp_end : fend; fp_st : Compose.t }

(** The (pipe, node) hops a path's state went through, in order. *)
let trail (fp : fpath) =
  List.rev (List.filter_map Fabric.parse_tag fp.fp_st.Compose.trail)

let set_port st port =
  {
    st with
    Compose.meta =
      (Ir.Port, T.bv_int ~width:8 port)
      :: List.remove_assoc Ir.Port st.Compose.meta;
  }

(* {2 Disjunctive sibling merging}

   Per-element segment summaries are {e parse-variant} heavy: an
   IPFilter expands to thousands of segments, almost all of which are
   pure filters — same (empty) byte effects, same outcome port,
   different path condition. Composing such elements across a fabric
   segment-by-segment multiplies those variants into an intractable
   path product (the repository already skips the instruction bound on
   the firewall example for exactly this reason). The fabric
   enumeration therefore merges, after every element application, the
   sibling successor states that differ {e only} in their path
   condition: one successor per (destination, effect shape), its
   condition the disjunction of the siblings'. Effect-shape equality
   is detected by physical sharing — a pure segment's successor reuses
   the parent's override table entries, length term, metadata and kv
   trace, so the pointer checks below are exact for the states worth
   merging and merely conservative for the rest (an unmerged sibling
   is never wrong, only slower). Instruction intervals widen to the
   group's envelope, which keeps hop/instruction bounds sound. *)

let rec phys_list_equal a b =
  match (a, b) with
  | [], [] -> true
  | x :: a', y :: b' -> x == y && phys_list_equal a' b'
  | _ -> false

let overrides_shared a b =
  Hashtbl.length a = Hashtbl.length b
  && (try
        Hashtbl.iter
          (fun j t ->
            match Hashtbl.find_opt b j with
            | Some t' when t' == t -> ()
            | _ -> raise Exit)
          a;
        true
      with Exit -> false)

let same_shape (a : Compose.t) (b : Compose.t) =
  a.Compose.background = b.Compose.background
  && a.Compose.len == b.Compose.len
  && phys_list_equal a.Compose.meta b.Compose.meta
  && a.Compose.kv_trace == b.Compose.kv_trace
  && a.Compose.summarized = b.Compose.summarized
  && a.Compose.headroom = b.Compose.headroom
  && a.Compose.headroom_short = b.Compose.headroom_short
  && phys_list_equal a.Compose.static_deps b.Compose.static_deps
  && overrides_shared a.Compose.overrides b.Compose.overrides

let rec drop_exactly n l =
  if n = 0 then l else drop_exactly (n - 1) (List.tl l)

let merge_group (group : Compose.t list) =
  match group with
  | [ st ] -> st
  | [] -> assert false
  | st0 :: _ ->
    let disj =
      T.or_
        (List.map (fun (s : Compose.t) -> T.and_ s.Compose.new_cond) group)
    in
    (* Siblings share the pre-apply condition suffix; peel this
       sibling's contribution off to recover it. *)
    let parent_cond =
      drop_exactly (List.length st0.Compose.new_cond) st0.Compose.cond
    in
    {
      st0 with
      Compose.cond = disj :: parent_cond;
      new_cond = [ disj ];
      instr_lo =
        List.fold_left
          (fun a (s : Compose.t) -> min a s.Compose.instr_lo)
          max_int group;
      instr_hi =
        List.fold_left
          (fun a (s : Compose.t) -> max a s.Compose.instr_hi)
          0 group;
    }

(* Group [(key, st)] pairs by key (with [=]) preserving first-seen
   order, then merge each key's states into shape classes. *)
let merge_by_key pairs =
  let keys = ref [] in
  List.iter
    (fun (key, _) -> if not (List.mem key !keys) then keys := key :: !keys)
    pairs;
  List.rev_map
    (fun key ->
      let sts =
        List.rev
          (List.filter_map
             (fun (k, st) -> if k = key then Some st else None)
             pairs)
      in
      let groups = ref [] in
      List.iter
        (fun st ->
          match
            List.find_opt (fun (rep, _) -> same_shape rep st) !groups
          with
          | Some (_, members) -> members := st :: !members
          | None -> groups := (st, ref [ st ]) :: !groups)
        sts;
      (key, List.rev_map (fun (_, members) -> merge_group !members) !groups))
    !keys

(** A fabric hop: (pipe, node, link crossings so far). *)
type node = int * int * int

(** The fabric's Step-2 expand step: apply every segment of the hop's
    summary, merge sibling successors that differ only in path
    condition (see above), and yield a [Check] per completed path —
    payload its {!fend} — then a [Descend] per continuing successor,
    into the next node of the pipeline or, across a link, into the
    linked pipeline's entry. Successors the interval filter refutes are
    dropped before they are built ({!Compose.guard}), and a link beyond
    {!Fabric.max_crossings} is not followed. *)
let expand rel ((pi, node, crossings) : node) (st : Compose.t) yield =
  let p = rel.fab.Fabric.pipes.(pi) in
  let nodes = Pipeline.nodes p.Fabric.p_pl in
  let tag = Fabric.tag ~pipe:pi ~node in
  let entry = rel.summaries.(pi).(node) in
  let site =
    Compose.site ~deps:entry.Summaries.result.Engine.static_deps st ~tag
  in
  let finished = ref [] in
  let goto = ref [] in
  List.iter
    (fun (seg : Engine.segment) ->
      let g = Compose.guard site seg in
      if Compose.plausible g then
        let st' = Compose.finish g in
        if st'.Compose.headroom_short then
          finished := (E_crash (pi, node, Engine.C_headroom), st') :: !finished
        else
          match seg.Engine.outcome with
          | Engine.O_crash c ->
            finished := (E_crash (pi, node, c), st') :: !finished
          | Engine.O_drop -> finished := (E_drop (pi, node), st') :: !finished
          | Engine.O_emit port -> (
            match nodes.(node).Pipeline.outputs.(port) with
            | Some (dst, dport) ->
              (* The runtime rewrites the port annotation on every
                 edge; track it so elements branching on the input
                 port (the NAT gateway) compose exactly. *)
              goto := ((pi, dst, dport, crossings), st') :: !goto
            | None -> (
              match Pipeline.egress_index p.Fabric.p_pl ~node ~port with
              | None -> ()  (* unreachable: unwired => egress *)
              | Some e -> (
                match Hashtbl.find_opt rel.fab.Fabric.links (pi, e) with
                | Some (dpi, dport) ->
                  if crossings < Fabric.max_crossings then
                    goto :=
                      ( ( dpi,
                          Pipeline.entry rel.fab.Fabric.pipes.(dpi).Fabric.p_pl,
                          dport,
                          crossings + 1 ),
                        st' )
                      :: !goto
                | None -> finished := (E_egress (pi, e), st') :: !finished))))
    entry.Summaries.result.Engine.segments;
  List.iter
    (fun (fe, sts) ->
      List.iter (fun st' -> yield (Vdp_verif.Verifier.Check (fe, st'))) sts)
    (merge_by_key (List.rev !finished));
  List.iter
    (fun ((dpi, dnode, dport, cr), sts) ->
      List.iter
        (fun st' ->
          yield
            (Vdp_verif.Verifier.Descend ((dpi, dnode, cr), set_port st' dport)))
        sts)
    (merge_by_key (List.rev !goto))

(** Where a traversal from [ingress = (pipe, in_port)] starts: the
    pipe's entry hop and the boot-time composite state, its port
    annotation set to [in_port]. *)
let root rel ~assume ~ingress:(pi, in_port) : node * Compose.t =
  ( (pi, Pipeline.entry rel.fab.Fabric.pipes.(pi).Fabric.p_pl, 0),
    Compose.initial ~assume
      ~meta:[ (Ir.Port, T.bv_int ~width:8 in_port) ]
      ~headroom:rel.config.Engine.headroom () )

(* {1 Boot-state grounding} *)

let store_decl rel tag store =
  match Fabric.parse_tag tag with
  | None -> None
  | Some (pi, node) ->
    let prog =
      (Pipeline.node rel.fab.Fabric.pipes.(pi).Fabric.p_pl node)
        .Pipeline.element
        .Element.program
    in
    List.find_opt
      (fun (d : Ir.store_decl) -> d.Ir.store_name = store)
      prog.Ir.stores

(* Initial contents of a private store, as an ITE over the declared
   init entries bottoming out at the default. *)
let init_term (d : Ir.store_decl) key =
  Vdp_ir.Static_data.fold
    (fun k v acc -> T.ite (T.eq key (T.bv k)) (T.bv v) acc)
    d.Ir.init
    (T.bv d.Ir.default)

(** Boot-semantics constraints for a kv event list ({e oldest first}):
    every private-store read returns what the chain of earlier writes
    to the same store instance — else the declared initial contents —
    holds at its key. *)
let ground_boot rel (events : (string * S.kv_event) list) : T.t list =
  (* (tag, store) -> conditional writes so far, oldest first *)
  let written : (string * string, (T.t * T.t * T.t) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let writes_of inst =
    match Hashtbl.find_opt written inst with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add written inst r;
      r
  in
  let out = ref [] in
  List.iter
    (fun (tag, ev) ->
      match ev with
      | S.Kv_write { store; key; value; cond } ->
        let r = writes_of (tag, store) in
        r := (cond, key, value) :: !r
      | S.Kv_read { store; key; value; cond } -> (
        match store_decl rel tag store with
        | Some d when d.Ir.kind = Ir.Private ->
          let base = init_term d key in
          let chain =
            List.fold_left
              (fun acc (wc, wk, wv) ->
                T.ite (T.and2 wc (T.eq wk key)) wv acc)
              base
              (List.rev !(writes_of (tag, store)))
          in
          out := T.implies cond (T.eq value chain) :: !out
        | _ -> ()))
    events;
  List.rev !out

(* {1 Two-packet (primed) queries} *)

(** Every variable of the prime packet's composed path is renamed
    behind this prefix; no engine- or composer-minted name starts with
    a quote, so the two runs' variables cannot collide. *)
let prime_prefix = "'"

let rename_event ren = function
  | S.Kv_read { store; key; value; cond } ->
    S.Kv_read
      { store; key = ren key; value = ren value; cond = ren cond }
  | S.Kv_write { store; key; value; cond } ->
    S.Kv_write
      { store; key = ren key; value = ren value; cond = ren cond }

(* Store instances a path reads / conditionally writes (private only —
   the coupling between packets runs through private state). *)
let reads_of rel (fp : fpath) =
  List.filter_map
    (fun (tag, ev) ->
      match ev with
      | S.Kv_read { store; _ } -> (
        match store_decl rel tag store with
        | Some d when d.Ir.kind = Ir.Private -> Some (tag, store)
        | _ -> None)
      | _ -> None)
    fp.fp_st.Compose.kv_trace

let writes_of_path (fp : fpath) =
  List.filter_map
    (fun (tag, ev) ->
      match ev with
      | S.Kv_write { store; _ } -> Some (tag, store)
      | _ -> None)
    fp.fp_st.Compose.kv_trace

(** Can [prime] influence [attack] at all? A prime path is only worth
    composing when it writes a store instance the attack path reads. *)
let couples rel ~prime ~attack =
  let reads = reads_of rel attack in
  List.exists (fun w -> List.mem w reads) (writes_of_path prime)

(** The boot grounding of one path's own kv trace — what a
    single-packet query adds to the path condition. *)
let boot_terms rel (st : Compose.t) =
  ground_boot rel (List.rev st.Compose.kv_trace)

(** The full solver query for [attack] primed by [prime]: both path
    conditions plus boot grounding over the combined kv trace. Also
    returns the static-slice deps for cache invalidation. *)
let query_terms rel ~(prime : fpath) ~(attack : fpath) :
    T.t list * (int * B.t) list =
  let memo = Hashtbl.create 64 in
  let ren t =
    T.substitute_vars ~memo
      (fun name sort ->
        match sort with
        | Vdp_smt.Sort.Bool -> Some (T.bool_var (prime_prefix ^ name))
        | Vdp_smt.Sort.Bv w -> Some (T.var (prime_prefix ^ name) w))
      t
  in
  let pr = prime.fp_st and at = attack.fp_st in
  let pr_events =
    List.rev_map (fun (tag, ev) -> (tag, rename_event ren ev)) pr.Compose.kv_trace
  in
  let deps =
    pr.Compose.static_deps
    @ List.filter
        (fun d -> not (List.mem d pr.Compose.static_deps))
        at.Compose.static_deps
  in
  ( ground_boot rel (pr_events @ List.rev at.Compose.kv_trace)
    @ List.map ren pr.Compose.cond
    @ at.Compose.cond,
    deps )

(** The prime packet's bytes under a model of a primed query — the
    composite witness is (this packet first, then the attack packet
    from {!Vdp_verif.Compose.witness_packet}). *)
let prime_witness_packet (m : Model.t) ~max_len =
  let pref n = prime_prefix ^ n in
  let len =
    match Model.bv_opt m (pref S.len_var) with
    | Some v -> min (B.to_int_trunc v) max_len
    | None -> 0
  in
  let data =
    String.init len (fun j ->
        match Model.bv_opt m (pref (S.byte_var j)) with
        | Some v -> Char.chr (B.to_int_trunc v land 0xff)
        | None -> '\000')
  in
  Vdp_packet.Packet.create data
