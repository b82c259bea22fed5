(** Witness replay and the differential oracle.

    Step 2 ends with a solver model: an assignment to the input packet
    bytes, metadata and the values returned by key/value store reads
    along one composite path. This module closes the loop between that
    symbolic claim and the concrete runtime, in two directions:

    - {b Replay} ({!replay}): turn the model into a concrete input
      packet {e plus the initial private store state the path depends
      on}, run it on wired pipelines ({!Vdp_click.Wired}), and check
      that the claimed violation actually happens there — same crash
      site, same drop node, same egress, or an instruction count inside
      the claimed interval. A violation whose witness survives this is
      [Confirmed]; otherwise the verdict carries the first hop where the
      concrete path diverged from the predicted one.

    - {b Differential} ({!check_packet}): drive an arbitrary concrete
      packet through the runtime and, in lockstep, through the Step-1
      summaries and Step-2 composition. At every hop exactly one
      segment must claim the observed input; its outcome, instruction
      count and packet transformation must agree with what the
      interpreter did, and the composed (renamed, substituted)
      constraints must stay true under the original input. Any
      disagreement is a bug in the engine, the composer or the
      interpreter — this is the randomized oracle the fuzzer in
      [test_replay] and [bench e8] run.

    Segments produced by loop summarisation mention havocked bytes and
    fresh loop state no concrete observation can pin down; their
    conditions are undecidable here. Such hops are matched {e
    approximately} (outcome + instruction interval) and counted in
    [approx]; everything else is matched exactly. *)

module B = Vdp_bitvec.Bitvec
module T = Vdp_smt.Term
module Model = Vdp_smt.Model
module Eval = Vdp_smt.Eval
module S = Vdp_symbex.Sstate
module Engine = Vdp_symbex.Engine
module Ir = Vdp_ir.Types
module Stores = Vdp_ir.Stores
module P = Vdp_packet.Packet
module Click = struct
  module Pipeline = Vdp_click.Pipeline
  module Element = Vdp_click.Element
  module Runtime = Vdp_click.Runtime
  module Wired = Vdp_click.Wired
end

(* {1 Concretizing a Step-2 model} *)

(* A composite position tag as (pipe, node): ["n<node>"] in a pipeline,
   the one-pipe case, and ["p<pipe>n<node>"] on a fabric. *)
let pos_of_tag tag =
  match Scanf.sscanf_opt tag "n%u%!" (fun n -> (0, n)) with
  | Some _ as pos -> pos
  | None -> Scanf.sscanf_opt tag "p%un%u%!" (fun p n -> (p, n))

let store_decl pl node name =
  let prog =
    (Click.Pipeline.node pl node).Click.Pipeline.element.Click.Element.program
  in
  List.find_opt (fun (d : Ir.store_decl) -> d.Ir.store_name = name)
    prog.Ir.stores

(** The declaration of [store] at the position [tag] names in [w]. *)
let decl_at (w : Click.Wired.t) tag store =
  Option.bind (pos_of_tag tag) (fun (pipe, node) ->
      store_decl (snd w.Click.Wired.pipes.(pipe)) node store)

(** Initial private-store contents:
    [((pipe, node), store, [(key, value); ...])]. *)
type state_init = ((int * int) * string * (B.t * B.t) list) list

(** Walk the composite kv trace oldest-first under the model. The first
    read of a (position, store, key) that no earlier write covers pins
    that key's {e initial} value — exactly the state the violation needs
    to be reachable. Later reads and writes only evolve the simulated
    contents. Only private stores can be preloaded; a model that
    assumes static contents other than the declared ones is noted. *)
let state_of_model (w : Click.Wired.t) (model : Model.t) (st : Compose.t) :
    state_init * string list =
  let init = Hashtbl.create 8 and current = Hashtbl.create 8 in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let tbl_of cache key =
    match Hashtbl.find_opt cache key with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 8 in
      Hashtbl.add cache key t;
      t
  in
  List.iter
    (fun (tag, ev) ->
      match pos_of_tag tag with
      | None -> ()
      | Some ((pipe, node) as pos) -> (
        let site = Click.Wired.site w ~pipe node in
        match ev with
        | S.Kv_write { store; key; value; cond } ->
          if Eval.eval_bool model cond then
            Hashtbl.replace
              (tbl_of current (pos, store))
              (Eval.eval_bv model key) (Eval.eval_bv model value)
        | S.Kv_read { store; key; value; cond } ->
          if Eval.eval_bool model cond then begin
            let k = Eval.eval_bv model key in
            let v = Eval.eval_bv model value in
            let cur = tbl_of current (pos, store) in
            match Hashtbl.find_opt cur k with
            | Some v' ->
              if not (B.equal v v') then
                note "model reads %s from %s %s[%s] already holding %s"
                  (B.to_string_hex v) site store (B.to_string_hex k)
                  (B.to_string_hex v')
            | None -> (
              Hashtbl.replace cur k v;
              match decl_at w tag store with
              | Some d when d.Ir.kind = Ir.Private ->
                Hashtbl.replace (tbl_of init (pos, store)) k v
              | Some d ->
                let actual =
                  match Vdp_ir.Static_data.find d.Ir.init k with
                  | Some v' -> v'
                  | None -> d.Ir.default
                in
                if not (B.equal actual v) then
                  note "model assumes static %s[%s] = %s at %s, actual \
                        contents are %s"
                    store (B.to_string_hex k) (B.to_string_hex v) site
                    (B.to_string_hex actual)
              | None -> note "model reads undeclared store %s at %s" store site)
          end))
    (List.rev st.Compose.kv_trace);
  let state =
    Hashtbl.fold
      (fun (pos, store) tbl acc ->
        (pos, store, Hashtbl.fold (fun k v l -> (k, v) :: l) tbl []) :: acc)
      init []
  in
  (state, List.rev !notes)

let predicted_path (st : Compose.t) =
  List.filter_map pos_of_tag (List.rev st.Compose.trail)

(* {1 Replaying a claimed violation} *)

(** How a claimed path ends: positions are (pipe, node), egresses
    (pipe, egress index). *)
type expect =
  | Crash_at of int * int
  | Drop_at of int * int
  | Egress_at of int * int
  | Instrs_between of int * int

(** One packet a replay pushes: where it enters the wired pipelines,
    and the composite state and end of the path it claims. *)
type leg = {
  at : int * int;  (** (pipe, in-port) *)
  packet : P.t;
  st : Compose.t;
  expect : expect;
}

type status = Confirmed | Unconfirmed of string

type t = {
  status : status;
  packet : P.t;         (** the concretized witness input *)
  state : state_init;   (** private store state loaded before the run *)
  run : Click.Wired.run;
  notes : string list;
}

let expect_to_string w = function
  | Crash_at (pipe, n) -> "crash at " ^ Click.Wired.site w ~pipe n
  | Drop_at (pipe, n) -> "drop at " ^ Click.Wired.site w ~pipe n
  | Egress_at (pipe, e) -> Click.Wired.egress_to_string w ~pipe e
  | Instrs_between (lo, hi) ->
    if lo = hi then Printf.sprintf "exactly %d instructions" hi
    else Printf.sprintf "%d..%d instructions" lo hi

let meets expect (r : Click.Wired.run) =
  match (expect, r.Click.Wired.final) with
  | Crash_at (p, n), Click.Runtime.Crashed_at (n', _)
  | Drop_at (p, n), Click.Runtime.Dropped_at n'
  | Egress_at (p, n), Click.Runtime.Egress n' ->
    p = r.Click.Wired.pipe && n = n'
  | Instrs_between (lo, hi), _ ->
    lo <= r.Click.Wired.total_instrs && r.Click.Wired.total_instrs <= hi
  | _ -> false

(* First hop at which the concrete (pipe, node) path left the predicted
   one. Hops read [node %d] in a standalone pipeline and
   [pipeline:element:hop] on a fabric. *)
let divergence w predicted (steps : Click.Runtime.step list) =
  let pdesc (pipe, node) = Click.Wired.site w ~pipe node in
  let sdesc i (s : Click.Runtime.step) =
    if s.Click.Runtime.pipeline = "" then
      Printf.sprintf "node %d" s.Click.Runtime.node
    else
      Printf.sprintf "%s:%s:%d" s.Click.Runtime.pipeline
        s.Click.Runtime.element i
  in
  let rec go i ps ss =
    match (ps, ss) with
    | [], [] -> None
    | p :: _, [] ->
      Some (Printf.sprintf "diverged at hop %d: predicted %s but the \
                            run had already ended" i (pdesc p))
    | [], s :: _ ->
      Some (Printf.sprintf "diverged at hop %d: run continued to %s \
                            beyond the predicted path" i (sdesc i s))
    | ((pipe, pn) as p) :: ps', s :: ss' ->
      if
        pn <> s.Click.Runtime.node
        || fst w.Click.Wired.pipes.(pipe) <> s.Click.Runtime.pipeline
      then
        Some (Printf.sprintf "diverged at hop %d: predicted %s, \
                              runtime took %s" i (pdesc p) (sdesc i s))
      else go (i + 1) ps' ss'
  in
  go 0 predicted steps

(* Push one leg and say how it missed its claim, if it did. *)
let push_leg w inst leg =
  let pipe, in_port = leg.at in
  let run = Click.Wired.push inst ~pipe ~in_port (P.clone leg.packet) in
  let miss =
    if meets leg.expect run then None
    else
      let base =
        Printf.sprintf "claimed %s, runtime did %s after %d instructions"
          (expect_to_string w leg.expect)
          (Click.Wired.end_to_string w run)
          run.Click.Wired.total_instrs
      in
      Some
        (match divergence w (predicted_path leg.st) run.Click.Wired.steps with
        | Some d -> base ^ "; " ^ d
        | None -> base)
  in
  (run, miss)

(** Replay a Step-2 model on one fresh instance of [w]: push the [prime]
    leg first, when there is one, then the witness leg; each must end
    where its path claims. The initial private state the witness path
    assumes is derived from the model and, unless the claim is about
    runs from [boot] state, loaded first. *)
let replay ?(boot = false) w ~(model : Model.t) ?prime leg =
  let state, notes = state_of_model w model leg.st in
  let state = if boot then [] else state in
  let inst = Click.Wired.instantiate w in
  List.iter
    (fun ((pipe, node), store, kvs) ->
      Click.Runtime.load_state inst.Click.Wired.insts.(pipe)
        [ (node, store, kvs) ])
    state;
  let prime_miss =
    Option.bind prime (fun p ->
        Option.map (( ^ ) "priming packet: ") (snd (push_leg w inst p)))
  in
  let run, miss = push_leg w inst leg in
  let status =
    match (prime_miss, miss) with
    | Some why, _ | None, Some why -> Unconfirmed why
    | None, None -> Confirmed
  in
  { status; packet = leg.packet; state; run; notes }

let confirmed r = r.status = Confirmed

(* {1 The differential oracle} *)

type session = {
  pl : Click.Pipeline.t;
  summaries : Summaries.entry array;
  concrete : Click.Runtime.instance;
      (** the runtime under test; carries real store state *)
  mirror : Click.Runtime.instance;
      (** the predictor's view of store state {e before} the packet
          currently being checked (the concrete instance has already
          processed it when the walk runs) *)
  max_len : int;
  mutable packets : int;
  mutable hops : int;
  mutable approx_hops : int;
}

let create_session ?pool ?(config = Engine.default_config) ?engine pl =
  let summaries = Summaries.of_pipeline ?pool ~config pl in
  {
    pl;
    summaries;
    concrete = Click.Runtime.instantiate ?engine pl;
    mirror = Click.Runtime.instantiate pl;
    max_len = config.Engine.max_len;
    packets = 0;
    hops = 0;
    approx_hops = 0;
  }

(** Bind the symbolic input-window variables to one concrete packet:
    every reachable buffer byte (beyond-window bytes cannot influence a
    feasible path — the engine guards every access with a bounds check
    — but binding them keeps segment conditions total), the window
    length and all metadata. *)
let model_of_packet ~max_len (p : P.t) : Model.t =
  let m = Model.create () in
  let cap = Bytes.length p.P.buf - p.P.head in
  for j = 0 to max (cap - 1) (max_len - 1) do
    let b = if j < cap then Char.code (Bytes.get p.P.buf (p.P.head + j)) else 0 in
    Model.set_bv m (S.byte_var j) (B.of_int ~width:8 b)
  done;
  Model.set_bv m S.len_var (B.of_int ~width:16 p.P.len);
  List.iter
    (fun meta ->
      let v =
        match meta with
        | Ir.Port -> p.P.port
        | Ir.Color -> p.P.color
        | Ir.W0 -> p.P.w0
        | Ir.W1 -> p.P.w1
      in
      Model.set_bv m (S.meta_var meta) (B.of_int ~width:(Ir.meta_width meta) v))
    [ Ir.Port; Ir.Color; Ir.W0; Ir.W1 ];
  m

let meta_of_packet (p : P.t) = function
  | Ir.Port -> p.P.port
  | Ir.Color -> p.P.color
  | Ir.W0 -> p.P.w0
  | Ir.W1 -> p.P.w1

(* Evaluate the values this segment's kv reads would return against the
   mirror store, shadowed by the segment's own earlier writes, and bind
   them into [hop_model] so the segment's condition becomes decidable.
   Fresh-variable names are shared across segments exactly when the
   segments share the path prefix that performed the read, so bindings
   from rejected candidates never conflict with the accepted one. *)
let bind_kv_reads session node hop_model (seg : Engine.segment) =
  let overlay : (string * B.t, B.t) Hashtbl.t = Hashtbl.create 4 in
  let bindings = ref [] in
  let undecided = ref false in
  List.iter
    (fun ev ->
      match ev with
      | S.Kv_write { store; key; value; _ } -> (
        try
          let k = Eval.eval_bv_strict hop_model key in
          let v = Eval.eval_bv_strict hop_model value in
          Hashtbl.replace overlay (store, k) v
        with Eval.Unbound _ -> undecided := true)
      | S.Kv_read { store; key; value; _ } -> (
        try
          let k = Eval.eval_bv_strict hop_model key in
          let v =
            match Hashtbl.find_opt overlay (store, k) with
            | Some v -> v
            | None ->
              Stores.read session.mirror.Click.Runtime.stores.(node) store k
          in
          match value.T.node with
          | T.Bv_var (name, _) ->
            Model.set_bv hop_model name v;
            bindings := (name, v) :: !bindings
          | _ -> ()
        with Eval.Unbound _ -> undecided := true))
    seg.Engine.kv_log;
  (overlay, List.rev !bindings, !undecided)

(* Conjunct-wise tri-state evaluation: a single definitely-false
   conjunct decides the segment even if other conjuncts mention
   unobservable (havocked) state. *)
let tri_of_conds hop_model conds =
  List.fold_left
    (fun acc c ->
      match acc with
      | `F -> `F
      | _ -> (
        try if Eval.eval_bool_strict hop_model c then acc else `F
        with Eval.Unbound _ -> `U))
    `T conds

type diff_outcome = {
  d_run : Click.Runtime.run;
  d_hops : int;
  d_approx : int;  (** hops matched only via a summarized segment *)
}

(* Copy a node's private store contents from the concrete instance into
   the mirror. Needed after an approximate hop: a summarized segment's
   writes are havocked and cannot be applied to the mirror, so the
   mirror re-observes reality instead. Writes never delete keys, so
   overwriting entry-by-entry resynchronises exactly. *)
let resync_node session node =
  let prog =
    (Click.Pipeline.node session.pl node).Click.Pipeline.element
      .Click.Element.program
  in
  List.iter
    (fun (d : Ir.store_decl) ->
      if d.Ir.kind = Ir.Private then
        List.iter
          (fun (k, v) ->
            Stores.write
              session.mirror.Click.Runtime.stores.(node)
              d.Ir.store_name k v)
          (Stores.entries
             session.concrete.Click.Runtime.stores.(node)
             d.Ir.store_name))
    prog.Ir.stores

let resync_all session =
  Array.iteri
    (fun node _ -> resync_node session node)
    (Click.Pipeline.nodes session.pl)

(** Run one packet through the concrete pipeline and through the
    summaries in lockstep; [Error] describes the first disagreement.
    The session's stores evolve with the stream, so feeding a stateful
    pipeline a sequence of packets exercises state evolution too. *)
let check_packet (session : session) (pkt : P.t) :
    (diff_outcome, string) result =
  if P.length pkt > session.max_len then
    invalid_arg "Witness.check_packet: packet exceeds the engine's max_len";
  let nodes = Click.Pipeline.nodes session.pl in
  (* Concrete run first, snapshotting the packet after every element
     (before the output port is rewritten for the next hop). *)
  let snaps = ref [] in
  let input0 = P.clone pkt in
  let run =
    Click.Runtime.push ~in_port:pkt.P.port session.concrete (P.clone pkt)
      ~trace:(fun step p -> snaps := (step, P.clone p) :: !snaps)
  in
  let snaps = Array.of_list (List.rev !snaps) in
  let comp_model = model_of_packet ~max_len:session.max_len input0 in
  let comp_st = ref (Compose.initial ()) in
  let approx = ref 0 in
  let err = ref None in
  let fail node fmt =
    Printf.ksprintf
      (fun s ->
        if !err = None then
          err :=
            Some
              (Printf.sprintf "node %d (%s): %s" node
                 nodes.(node).Click.Pipeline.element.Click.Element.name s))
      fmt
  in
  (* [port]: the next element's input port, entered as Step 2 does. *)
  let commit node overlay bindings (seg : Engine.segment) ~port =
    Hashtbl.iter
      (fun (store, k) v ->
        match store_decl session.pl node store with
        | Some d when d.Ir.kind = Ir.Private ->
          Stores.write session.mirror.Click.Runtime.stores.(node) store k v
        | _ -> ())
      overlay;
    let tag = Printf.sprintf "n%d" node in
    List.iter
      (fun (name, v) -> Model.set_bv comp_model ("!" ^ tag ^ name) v)
      bindings;
    comp_st := Compose.apply ?port !comp_st ~tag seg;
    (* The composed (renamed, substituted) constraints must stay true
       over the original input — this cross-checks Compose.import
       against the element-level match just made. *)
    List.iter
      (fun c ->
        match
          try Some (Eval.eval_bool_strict comp_model c)
          with Eval.Unbound _ -> None
        with
        | Some false ->
          fail node
            "composite constraint is false though the element-level \
             segment matched (composition bug)"
        | _ -> ())
      !comp_st.Compose.new_cond
  in
  (* Check the exact packet transformation an unsummarized emit claims. *)
  let check_out_state node hop_model (seg : Engine.segment)
      (step : Click.Runtime.step) (snap : P.t) =
    match step.Click.Runtime.outcome with
    | Ir.Emitted _ ->
      let out = seg.Engine.out_state in
      let eval_int term =
        try Some (B.to_int_trunc (Eval.eval_bv_strict hop_model term))
        with Eval.Unbound _ -> None
      in
      (match eval_int out.Engine.len_out with
      | Some l when l <> snap.P.len ->
        fail node "predicted output length %d, runtime produced %d" l
          snap.P.len
      | _ -> ());
      if out.Engine.havoc = None then
        List.iter
          (fun (off, term) ->
            if off >= 0 && off < snap.P.len then
              match eval_int term with
              | Some b when b land 0xff <> P.get_u8 snap off ->
                fail node
                  "predicted output byte [%d] = %#x, runtime wrote %#x" off
                  (b land 0xff) (P.get_u8 snap off)
              | _ -> ())
          out.Engine.writes;
      List.iter
        (fun (m, term) ->
          match eval_int term with
          | Some v when v <> meta_of_packet snap m ->
            fail node "predicted %s = %d, runtime has %d" (S.meta_var m) v
              (meta_of_packet snap m)
          | _ -> ())
        out.Engine.meta_out
    | _ -> ()
  in
  let input = ref input0 in
  Array.iteri
    (fun i (step, snap) ->
      if !err = None then begin
        let node = (step : Click.Runtime.step).Click.Runtime.node in
        let port =
          match step.Click.Runtime.outcome with
          | Ir.Emitted p ->
            Option.map snd nodes.(node).Click.Pipeline.outputs.(p)
          | _ -> None
        in
        let hop_model = model_of_packet ~max_len:session.max_len !input in
        let evaluated =
          List.map
            (fun (seg : Engine.segment) ->
              let overlay, bindings, kv_undecided =
                bind_kv_reads session node hop_model seg
              in
              let tri =
                match tri_of_conds hop_model seg.Engine.cond with
                | `F -> `F
                | t -> if kv_undecided then `U else t
              in
              (seg, overlay, bindings, tri))
            session.summaries.(node).Summaries.result.Engine.segments
        in
        let step_agrees (seg : Engine.segment) =
          Engine.outcome_matches seg.Engine.outcome
            step.Click.Runtime.outcome
          && seg.Engine.instr_lo <= step.Click.Runtime.instrs
          && step.Click.Runtime.instrs <= seg.Engine.instr_hi
        in
        (match List.filter (fun (_, _, _, t) -> t = `T) evaluated with
        | [ (seg, overlay, bindings, _) ] ->
          if not (step_agrees seg) then
            fail node
              "segment predicts %s in [%d, %d] instrs, runtime did %s in \
               %d (hop %d)"
              (Format.asprintf "%a" Engine.pp_outcome seg.Engine.outcome)
              seg.Engine.instr_lo seg.Engine.instr_hi
              (Format.asprintf "%a" Ir.pp_outcome step.Click.Runtime.outcome)
              step.Click.Runtime.instrs i
          else begin
            if not seg.Engine.summarized then
              check_out_state node hop_model seg step snap;
            commit node overlay bindings seg ~port
          end
        | [] -> (
          (* No decidable match: fall back to summarized candidates that
             at least agree on what happened. *)
          match
            List.filter
              (fun (seg, _, _, t) -> t = `U && step_agrees seg)
              evaluated
          with
          | (seg, overlay, bindings, _) :: _ ->
            incr approx;
            commit node overlay bindings seg ~port;
            (* The segment's own writes were havocked; re-observe the
               store state the concrete run left behind. *)
            resync_node session node
          | [] ->
            fail node
              "no segment matches the runtime step %s (%d instrs, hop %d)"
              (Format.asprintf "%a" Ir.pp_outcome step.Click.Runtime.outcome)
              step.Click.Runtime.instrs i)
        | _ :: _ :: _ as many ->
          fail node
            "%d segments all claim this input (hop %d) — summaries overlap"
            (List.length many) i);
        (* Next element's input: this snapshot, port rewritten the way
           the runtime does when following the edge. *)
        Option.iter
          (fun port ->
            let q = P.clone snap in
            q.P.port <- port;
            input := q)
          port
      end)
    snaps;
  (* Whole-path checks: composed instruction interval and, for egressed
     packets, the composed output contents over the original input. *)
  if !err = None then begin
    let total = run.Click.Runtime.total_instrs in
    if
      total < !comp_st.Compose.instr_lo || total > !comp_st.Compose.instr_hi
    then
      err :=
        Some
          (Printf.sprintf
             "composite instruction interval [%d, %d] excludes the \
              runtime's %d"
             !comp_st.Compose.instr_lo !comp_st.Compose.instr_hi total);
    match run.Click.Runtime.final with
    | Click.Runtime.Egress _ when Array.length snaps > 0 && !err = None ->
      let _, last = snaps.(Array.length snaps - 1) in
      let eval_int term =
        try Some (B.to_int_trunc (Eval.eval_bv_strict comp_model term))
        with Eval.Unbound _ -> None
      in
      (match eval_int !comp_st.Compose.len with
      | Some l when l <> last.P.len ->
        err :=
          Some
            (Printf.sprintf
               "composite output length %d, runtime egressed %d bytes" l
               last.P.len)
      | _ -> ());
      for j = 0 to last.P.len - 1 do
        if !err = None then
          match eval_int (Compose.byte !comp_st j) with
          | Some b when b land 0xff <> P.get_u8 last j ->
            err :=
              Some
                (Printf.sprintf
                   "composite output byte [%d] = %#x, runtime egressed %#x"
                   j (b land 0xff) (P.get_u8 last j))
          | _ -> ()
      done;
      List.iter
        (fun (m, term) ->
          if !err = None then
            match eval_int term with
            | Some v when v <> meta_of_packet last m ->
              err :=
                Some
                  (Printf.sprintf "composite %s = %d, runtime egressed %d"
                     (S.meta_var m) v (meta_of_packet last m))
            | _ -> ())
        !comp_st.Compose.meta
    | _ -> ()
  end;
  match !err with
  | Some msg ->
    (* Keep the session usable for subsequent packets. *)
    resync_all session;
    Error msg
  | None ->
    session.packets <- session.packets + 1;
    session.hops <- session.hops + Array.length snaps;
    session.approx_hops <- session.approx_hops + !approx;
    Ok { d_run = run; d_hops = Array.length snaps; d_approx = !approx }

(* {1 The randomized differential fuzzer} *)

(** A mixed workload: well-formed UDP/TCP flows, corrupted variants,
    IPv4-options frames and raw random garbage — the same blend of
    valid and hostile traffic the paper's properties quantify over. *)
let fuzz_workload ?(seed = 7) n =
  let module Gen = Vdp_packet.Gen in
  let st = Random.State.make [| seed |] in
  List.init n (fun i ->
      match i mod 5 with
      | 0 | 1 -> Gen.frame_of_flow (Gen.random_flow st)
      | 2 -> Gen.corrupt st (Gen.frame_of_flow (Gen.random_flow st))
      | 3 ->
        Gen.frame_with_options ~options:"\x07\x07\x04\x00\x00\x00\x00"
          (Gen.random_flow st)
      | _ -> Gen.random_frame ~min_len:1 ~max_len:96 st)

type fuzz_report = {
  f_packets : int;  (** packets driven through both sides *)
  f_hops : int;
  f_approx : int;   (** hops matched only via a summarized segment *)
  f_failures : (int * string) list;
      (** (packet index, disagreement) — any entry is a bug *)
}

(** Run the differential oracle over [count] fuzzed packets on a fresh
    session (stores evolve across the stream, so stateful elements see
    a history, not just single packets). *)
let differential ?pool ?config ?engine ?(seed = 7) ?(count = 500) pl =
  let session = create_session ?pool ?config ?engine pl in
  let failures = ref [] in
  List.iteri
    (fun i pkt ->
      match check_packet session pkt with
      | Ok _ -> ()
      | Error m -> failures := (i, m) :: !failures)
    (fuzz_workload ~seed count);
  {
    f_packets = count;
    f_hops = session.hops;
    f_approx = session.approx_hops;
    f_failures = List.rev !failures;
  }
