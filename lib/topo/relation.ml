(** Per-pipeline transfer relations, composed across the fabric.

    The verifier's Step 2 walks a node graph with one hop step
    ({!Vdp_verif.Verifier.step}). This module supplies the fabric's
    graph ({!graph}): a node is a (pipe, node, crossings) hop and a link
    crossing is one more descent, so the verifier's drivers walk fabric
    paths exactly as they walk pipeline paths; {!expand} is the step
    with every fabric query's filter. Composite states carry position
    tags ["p<pipe>n<node>"] ({!Fabric.tag}), so all of Compose —
    headroom accounting, static-slice deps, the kv event trace,
    instruction intervals, the node trail — works unchanged over the
    composed fabric.

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
module S = Vdp_symbex.Sstate
module Engine = Vdp_symbex.Engine
module Ir = Vdp_ir.Types
module Pipeline = Vdp_click.Pipeline
module Compose = Vdp_verif.Compose
module Summaries = Vdp_verif.Summaries
module Staleness = Vdp_verif.Staleness
module V = Vdp_verif.Verifier

type t = {
  fab : Fabric.t;
  summaries : Summaries.entry array array;  (** per pipe, per node *)
  merged : Engine.segment list option Atomic.t array array;
      (** per pipe, per node: the summary's segments merged by effect
          ({!merged}), built on first use *)
  config : Engine.config;
}

(** Summarize every pipeline of the fabric (Step 1, shared cache). *)
let build ?pool ?(config = Engine.default_config) (fab : Fabric.t) =
  Staleness.install ();
  let summaries =
    Array.map
      (fun (p : Fabric.pipe) -> Summaries.of_pipeline ?pool ~config p.Fabric.p_pl)
      fab.Fabric.pipes
  in
  {
    fab;
    summaries;
    merged = Array.map (Array.map (fun _ -> Atomic.make None)) summaries;
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

(* {2 Disjunctive sibling merging, once per summary}

   Per-element segment summaries are {e parse-variant} heavy: an
   IPFilter expands to thousands of pure-filter segments — same effects,
   same outcome, different path condition — and composing them
   segment-by-segment multiplies the variants into an intractable path
   product. Segments with the same effects ({!effect_key}) and no state
   events (those are what {!ground_boot} grounds) are therefore merged
   into one, at the first member's position: its condition is the
   members' disjunction, factored on their shared prefixes, and its
   instruction interval their envelope, which keeps bounds sound. This
   depends on the summary alone, so it is built once per relation and
   node, by the first expand that reaches it ({!merged}). *)

(** What a segment does to the packet, its metadata and its outcome:
    segments with equal keys build successors that differ only in
    condition and instruction count. *)
let effect_key (seg : Engine.segment) =
  let o = seg.Engine.out_state in
  let ids l = List.map (fun (k, (t : T.t)) -> (k, t.T.id)) l in
  ( seg.Engine.outcome,
    o.Engine.head_delta,
    o.Engine.min_delta,
    o.Engine.len_out.T.id,
    ids o.Engine.writes,
    ids o.Engine.meta_out,
    o.Engine.havoc,
    seg.Engine.summarized )

(** [Or_i (And l_i)] over conjunct lists, built as a trie on their
    shared prefixes: [true] if some list is empty, else the [Or] over
    the lists' distinct heads [h], in first-seen order, of
    [And \[h; factor tails_h\]]. A conjunct every list starts with
    thus stays a top-level conjunct the interval filter sees. *)
let factor (ls : T.t list list) =
  (* [And (rev pre) ∧ factor ls]: a run of heads all lists share is
     carried in [pre] and conjoined once, not re-flattened per level. *)
  let rec under pre ls =
    match ls with
    | [ l ] -> T.and_ (List.rev_append pre l)
    | _ when List.mem [] ls -> T.and_ (List.rev pre)
    | _ -> (
      let tails = Hashtbl.create 8 and heads = ref [] in
      List.iter
        (fun l ->
          let h = List.hd l in
          match Hashtbl.find_opt tails h.T.id with
          | Some r -> r := List.tl l :: !r
          | None ->
            Hashtbl.add tails h.T.id (ref [ List.tl l ]);
            heads := h :: !heads)
        ls;
      let tails_of (h : T.t) = List.rev !(Hashtbl.find tails h.T.id) in
      match !heads with
      | [ h ] -> under (h :: pre) (tails_of h)
      | hs ->
        let branch h = under [ h ] (tails_of h) in
        T.and_ (List.rev_append pre [ T.or_ (List.rev_map branch hs) ]))
  in
  under [] ls

(** A summary's segments grouped by effect, in order of their first
    member: each segment with state events is a group of its own. *)
let premerge (segs : Engine.segment list) =
  let groups = Hashtbl.create 16 in
  let pure (seg : Engine.segment) = seg.Engine.kv_log = [] in
  List.fold_left
    (fun order seg ->
      let key = effect_key seg in
      match Hashtbl.find_opt groups key with
      | Some r when pure seg ->
        r := seg :: !r;
        order
      | _ ->
        let r = ref [ seg ] in
        if pure seg then Hashtbl.replace groups key r;
        r :: order)
    [] segs
  |> List.rev_map (fun r -> List.rev !r)

(** One group's segment: its members' disjunction, factored. *)
let merge_members = function
  | [ seg ] -> seg
  | seg0 :: _ as group ->
    {
      seg0 with
      Engine.cond =
        [ factor (List.map (fun (s : Engine.segment) -> s.Engine.cond) group) ];
      instr_lo =
        List.fold_left (fun a (s : Engine.segment) -> min a s.Engine.instr_lo)
          max_int group;
      instr_hi =
        List.fold_left (fun a (s : Engine.segment) -> max a s.Engine.instr_hi)
          0 group;
    }
  | [] -> assert false

(** The merged view of [(pipe, node)]'s summary, built by the first
    expand that needs it. Domains racing on a node may each build it;
    they build equal lists, and all of them use the one that lands. *)
let merged rel ~pipe ~node =
  let cell = rel.merged.(pipe).(node) in
  match Atomic.get cell with
  | Some segs -> segs
  | None ->
    let segs =
      List.map merge_members
        (premerge rel.summaries.(pipe).(node).Summaries.result.Engine.segments)
    in
    ignore (Atomic.compare_and_set cell None (Some segs));
    Option.get (Atomic.get cell)

(** A fabric hop: (pipe, node, link crossings so far). *)
type node = int * int * int

(** The fabric's node graph: a hop's segments are its merged summary
    ({!merged}), and a linked egress goes into the linked pipeline's
    entry, up to {!Vdp_click.Wired.max_crossings} crossings. *)
let graph rel : (node, int * int) V.graph =
  let pipeline pi = rel.fab.Fabric.pipes.(pi).Fabric.p_pl in
  {
    V.segments = (fun (pi, node, _) -> merged rel ~pipe:pi ~node);
    deps =
      (fun (pi, node, _) ->
        rel.summaries.(pi).(node).Summaries.result.Engine.static_deps);
    tag = (fun (pi, node, _) -> Fabric.tag ~pipe:pi ~node);
    route =
      (fun (pi, node, crossings) port ->
        let pl = pipeline pi in
        match (Pipeline.node pl node).Pipeline.outputs.(port) with
        | Some (dst, dport) -> V.Goes ((pi, dst, crossings), dport)
        | None -> (
          (* Every unwired output is an egress. *)
          let e = Option.get (Pipeline.egress_index pl ~node ~port) in
          match Hashtbl.find_opt rel.fab.Fabric.links (pi, e) with
          | None -> V.Ends (V.Egress (pi, e))
          | Some (dpi, dport) ->
            let hop = (dpi, Pipeline.entry (pipeline dpi), crossings + 1) in
            if crossings < Vdp_click.Wired.max_crossings then
              V.Goes (hop, dport)
            else V.Cut));
  }

(** A fabric path's end at hop [(pi, node, _)]. *)
let fend (pi, node, _) = function
  | V.Egress (p, e) -> E_egress (p, e)
  | V.Drop -> E_drop (pi, node)
  | V.Crash c -> E_crash (pi, node, c)

(** The fabric's Step-2 expand step ({!Vdp_verif.Verifier.step}): a
    [Check] per plausible completed path, its payload the path's
    {!fend}, and a [Descend] per plausible successor. *)
let expand rel =
  V.plausible_step (graph rel) (fun hop stop _ -> Some (fend hop stop))

(** Where a traversal from [ingress = (pipe, in_port)] starts: the
    pipe's entry hop and the boot-time composite state, its port
    annotation set to [in_port]. *)
let root rel ~assume ~ingress:(pi, in_port) : node * Compose.t =
  ( (pi, Pipeline.entry rel.fab.Fabric.pipes.(pi).Fabric.p_pl, 0),
    Compose.initial ~assume
      ~meta:[ (Ir.Port, T.bv_int ~width:8 in_port) ]
      ~headroom:rel.config.Engine.headroom () )

(* {1 Boot-state grounding} *)

let store_decl rel = Vdp_verif.Witness.decl_at rel.fab.Fabric.wired

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
