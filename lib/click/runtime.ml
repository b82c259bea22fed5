(** The push-mode dataplane runtime: drives packets through a pipeline,
    collecting per-hop traces and aggregate statistics. This is the
    "fast path" whose behaviour the verifier proves things about.

    Two engines share one observable semantics:

    - {!Scalar} — the reference: a per-packet recursive walk over the
      per-instruction interpreter. The only engine that tolerates
      cyclic pipelines (until the hop budget trips).
    - {!Compiled} — each element's IR lowered once per instance to an
      OCaml closure program ({!Vdp_ir.Compile}), run over a batch
      schedule: packets are staged in a preallocated slot ring, and
      each node's program runs over every packet queued at that node
      (in topological order) before the batch moves on. No per-packet
      list or closure allocation in the hot loop. Because pipelines
      are DAGs, a packet's node sequence is strictly ascending in
      topological order, so per-slot traces come out in true execution
      order.

    Outcomes, traces, instruction counts and store evolution are
    identical across engines; the differential oracle and
    [test_batch.ml] enforce that. *)

module Ir = Vdp_ir.Types
module Interp = Vdp_ir.Interp
module Compile = Vdp_ir.Compile
module Stores = Vdp_ir.Stores
module P = Vdp_packet.Packet

type engine = Scalar | Compiled

let engine_name = function Scalar -> "scalar" | Compiled -> "compiled"

let engine_of_string = function
  | "scalar" -> Some Scalar
  | "compiled" -> Some Compiled
  | _ -> None

type step = {
  node : int;
  element : string;
  outcome : Ir.outcome;
  instrs : int;
  pipeline : string;
      (** the instance's label — which pipeline of a fabric took the
          step; [""] for a standalone pipeline *)
}

type final =
  | Egress of int  (** pipeline-level output number *)
  | Dropped_at of int
  | Crashed_at of int * Ir.crash
  | Hop_budget_at of int
      (** the hop budget was exhausted entering this node (cyclic
          pipeline or one deeper than {!max_hops}) *)

type run = {
  final : final;
  steps : step list;  (** in execution order *)
  total_instrs : int;
}

let max_hops = 1024
let default_batch = 256

type instance = {
  pipeline : Pipeline.t;
  label : string;
      (** pipeline name carried into every {!step}; [""] outside a
          fabric, so single-pipeline reports are unchanged *)
  stores : Stores.t array;  (** per-node private/static store state *)
  engine : engine;
  exec : (P.t -> Interp.result) array;  (** per-node executor *)
  egress_of : int array array;
      (** [egress_of.(node).(port)] — pipeline output number, -1 if the
          port is wired to another element *)
  order : int array;  (** topological order; [||] for {!Scalar} *)
  (* Preallocated batch ring: parallel per-slot arrays, plus one int
     queue per node. A packet visits a node at most once (DAG), so
     [capacity] slots per queue always suffice. *)
  capacity : int;
  ring : P.t array;
  finals : final array;
  finished : bool array;
  hops : int array;
  totals : int array;
  steps_rev : step list array;
  queues : int array array;
  qlen : int array;
}

let dummy_packet = P.create ""
let dummy_final = Dropped_at (-1)

let instantiate ?(engine = Scalar) ?(batch = default_batch) ?(label = "")
    pipeline =
  let stores =
    Array.map
      (fun (n : Pipeline.node) ->
        Stores.init n.Pipeline.element.Element.program.Ir.stores)
      (Pipeline.nodes pipeline)
  in
  let nnodes = Pipeline.length pipeline in
  let exec =
    Array.init nnodes (fun i ->
        let prog =
          (Pipeline.node pipeline i).Pipeline.element.Element.program
        in
        match engine with
        | Scalar -> Interp.run prog stores.(i)
        | Compiled -> Compile.compile prog stores.(i))
  in
  let egress_of =
    let pts = Pipeline.egress_points pipeline in
    let t =
      Array.map
        (fun (n : Pipeline.node) ->
          Array.make (Array.length n.Pipeline.outputs) (-1))
        (Pipeline.nodes pipeline)
    in
    Array.iteri (fun e (ni, p) -> t.(ni).(p) <- e) pts;
    t
  in
  let order =
    match engine with
    | Scalar -> [||]
    | Compiled ->
      (* Raises on cyclic pipelines: the batch schedule needs packet
         paths to ascend in topological order. *)
      Array.of_list (Pipeline.topological_order pipeline)
  in
  let capacity = match engine with Scalar -> 1 | Compiled -> max 1 batch in
  {
    pipeline;
    label;
    stores;
    engine;
    exec;
    egress_of;
    order;
    capacity;
    ring = Array.make capacity dummy_packet;
    finals = Array.make capacity dummy_final;
    finished = Array.make capacity false;
    hops = Array.make capacity 0;
    totals = Array.make capacity 0;
    steps_rev = Array.make capacity [];
    queues = Array.init nnodes (fun _ -> Array.make capacity 0);
    qlen = Array.make nnodes 0;
  }

let engine inst = inst.engine
let reset inst = Array.iter Stores.reset inst.stores

(** Preload private store entries, e.g. the initial state a verifier
    witness depends on: [(node, store, [(key, value); ...])]. *)
let load_state inst entries =
  List.iter
    (fun (node, store, kvs) ->
      List.iter (fun (k, v) -> Stores.write inst.stores.(node) store k v) kvs)
    entries

(* {1 The scalar engine} *)

let push_scalar ?trace inst pkt =
  let steps = ref [] in
  let total = ref 0 in
  let rec hop ni hops =
    if hops > max_hops then Hop_budget_at ni
    else begin
      let n = Pipeline.node inst.pipeline ni in
      let r = inst.exec.(ni) pkt in
      total := !total + r.Interp.instr_count;
      let step =
        {
          node = ni;
          element = n.Pipeline.element.Element.name;
          outcome = r.Interp.outcome;
          instrs = r.Interp.instr_count;
          pipeline = inst.label;
        }
      in
      steps := step :: !steps;
      (match trace with Some f -> f step pkt | None -> ());
      match r.Interp.outcome with
      | Ir.Emitted p -> (
        match n.Pipeline.outputs.(p) with
        | Some (dst, dport) ->
          pkt.P.port <- dport;
          hop dst (hops + 1)
        | None -> Egress inst.egress_of.(ni).(p))
      | Ir.Dropped -> Dropped_at ni
      | Ir.Crashed c -> Crashed_at (ni, c)
    end
  in
  let final = hop (Pipeline.entry inst.pipeline) 0 in
  { final; steps = List.rev !steps; total_instrs = !total }

(* {1 The batch schedule of the compiled engine} *)

(* Run the first [k] ring slots through the pipeline, one node at a
   time in topological order. Input ports must already be set on the
   slot packets. Per-slot finals/totals land in the instance arrays;
   step records (and the [trace] callback, invoked with the packet as
   the element left it, before the port is rewritten for the next hop)
   only when [collect]. *)
let batch_sweep ?trace ~collect inst k =
  let pl = inst.pipeline in
  for i = 0 to k - 1 do
    inst.hops.(i) <- 0;
    inst.finished.(i) <- false;
    inst.totals.(i) <- 0;
    inst.steps_rev.(i) <- []
  done;
  Array.fill inst.qlen 0 (Array.length inst.qlen) 0;
  let entry = Pipeline.entry pl in
  let eq = inst.queues.(entry) in
  for i = 0 to k - 1 do
    eq.(i) <- i
  done;
  inst.qlen.(entry) <- k;
  for oi = 0 to Array.length inst.order - 1 do
    let ni = inst.order.(oi) in
    let qn = inst.qlen.(ni) in
    if qn > 0 then begin
      let node = Pipeline.node pl ni in
      let name = node.Pipeline.element.Element.name in
      let exec = inst.exec.(ni) in
      let q = inst.queues.(ni) in
      for qi = 0 to qn - 1 do
        let slot = q.(qi) in
        if not inst.finished.(slot) then
          if inst.hops.(slot) > max_hops then begin
            inst.finals.(slot) <- Hop_budget_at ni;
            inst.finished.(slot) <- true
          end
          else begin
            let pkt = inst.ring.(slot) in
            let r = exec pkt in
            inst.totals.(slot) <- inst.totals.(slot) + r.Interp.instr_count;
            inst.hops.(slot) <- inst.hops.(slot) + 1;
            if collect then begin
              let step =
                {
                  node = ni;
                  element = name;
                  outcome = r.Interp.outcome;
                  instrs = r.Interp.instr_count;
                  pipeline = inst.label;
                }
              in
              inst.steps_rev.(slot) <- step :: inst.steps_rev.(slot);
              match trace with Some f -> f step pkt | None -> ()
            end;
            match r.Interp.outcome with
            | Ir.Emitted p -> (
              match node.Pipeline.outputs.(p) with
              | Some (dst, dport) ->
                pkt.P.port <- dport;
                let dq = inst.queues.(dst) in
                dq.(inst.qlen.(dst)) <- slot;
                inst.qlen.(dst) <- inst.qlen.(dst) + 1
              | None ->
                inst.finals.(slot) <- Egress inst.egress_of.(ni).(p);
                inst.finished.(slot) <- true)
            | Ir.Dropped ->
              inst.finals.(slot) <- Dropped_at ni;
              inst.finished.(slot) <- true
            | Ir.Crashed c ->
              inst.finals.(slot) <- Crashed_at (ni, c);
              inst.finished.(slot) <- true
          end
      done
    end
  done

let push_batched ?trace inst pkt =
  inst.ring.(0) <- pkt;
  batch_sweep ?trace ~collect:true inst 1;
  inst.ring.(0) <- dummy_packet;
  {
    final = inst.finals.(0);
    steps = List.rev inst.steps_rev.(0);
    total_instrs = inst.totals.(0);
  }

(** Push one packet in at [in_port] of the entry element. The packet is
    mutated in place (clone first if you need the original). [trace] is
    called after every element with the step just taken and the packet
    as the element left it — before the output port meta is rewritten
    for the next hop — so a caller can snapshot per-element state. *)
let push ?(in_port = 0) ?trace inst pkt =
  pkt.P.port <- in_port;
  match inst.engine with
  | Scalar -> push_scalar ?trace inst pkt
  | Compiled -> push_batched ?trace inst pkt

(* {1 Aggregate statistics over a workload} *)

type stats = {
  mutable sent : int;
  mutable egressed : int;
  mutable dropped : int;
  mutable crashed : int;
  mutable hop_budget : int;
      (** packets cut off by the hop budget (pathological pipelines) *)
  mutable instrs : int;
  mutable max_instrs : int;
}

let fresh_stats () =
  { sent = 0; egressed = 0; dropped = 0; crashed = 0; hop_budget = 0;
    instrs = 0; max_instrs = 0 }

let count_final st = function
  | Egress _ -> st.egressed <- st.egressed + 1
  | Dropped_at _ -> st.dropped <- st.dropped + 1
  | Crashed_at _ -> st.crashed <- st.crashed + 1
  | Hop_budget_at _ -> st.hop_budget <- st.hop_budget + 1

(** Drive a workload and aggregate. The compiled engine fills the slot ring
    with up to [capacity] packets per sweep; the scalar engine pushes
    one packet at a time. A packet that exhausts the hop budget is
    counted in [hop_budget] rather than aborting the whole workload. *)
let run_workload ?(in_port = 0) inst pkts =
  let st = fresh_stats () in
  (match inst.engine with
  | Scalar ->
    List.iter
      (fun pkt ->
        let r = push ~in_port inst pkt in
        st.sent <- st.sent + 1;
        st.instrs <- st.instrs + r.total_instrs;
        st.max_instrs <- max st.max_instrs r.total_instrs;
        count_final st r.final)
      pkts
  | Compiled ->
    let pkts = Array.of_list pkts in
    let n = Array.length pkts in
    let pos = ref 0 in
    while !pos < n do
      let k = min inst.capacity (n - !pos) in
      for i = 0 to k - 1 do
        let pkt = pkts.(!pos + i) in
        pkt.P.port <- in_port;
        inst.ring.(i) <- pkt
      done;
      batch_sweep ~collect:false inst k;
      for i = 0 to k - 1 do
        st.sent <- st.sent + 1;
        st.instrs <- st.instrs + inst.totals.(i);
        st.max_instrs <- max st.max_instrs inst.totals.(i);
        count_final st inst.finals.(i);
        inst.ring.(i) <- dummy_packet
      done;
      pos := !pos + k
    done);
  st

(* Restore working packet [dst] to the pristine state of template
   [src] (its clone): window position, window bytes and metadata.
   Bytes the previous run wrote outside the restored window are
   unreachable once head/len are reset. *)
let refresh dst src =
  dst.P.head <- src.P.head;
  dst.P.len <- src.P.len;
  Bytes.blit src.P.buf src.P.head dst.P.buf src.P.head src.P.len;
  dst.P.port <- src.P.port;
  dst.P.color <- src.P.color;
  dst.P.w0 <- src.P.w0;
  dst.P.w1 <- src.P.w1

(** Steady-state driver: push [count] packets drawn round-robin from a
    preallocated template pool, restoring a working copy in place
    before each — no allocation in the loop, like a NIC refilling its
    RX ring. Same aggregate stats as {!run_workload} over the same
    packet sequence. *)
let run_pool ?(in_port = 0) inst templates count =
  let npool = Array.length templates in
  if npool = 0 then invalid_arg "Runtime.run_pool: empty pool";
  let work = Array.map P.clone templates in
  let st = fresh_stats () in
  (match inst.engine with
  | Scalar ->
    for i = 0 to count - 1 do
      let j = i mod npool in
      refresh work.(j) templates.(j);
      let r = push ~in_port inst work.(j) in
      st.sent <- st.sent + 1;
      st.instrs <- st.instrs + r.total_instrs;
      st.max_instrs <- max st.max_instrs r.total_instrs;
      count_final st r.final
    done
  | Compiled ->
    let pos = ref 0 in
    while !pos < count do
      (* One sweep must not alias two ring slots to one pool packet. *)
      let k = min (min inst.capacity npool) (count - !pos) in
      for i = 0 to k - 1 do
        let j = (!pos + i) mod npool in
        refresh work.(j) templates.(j);
        work.(j).P.port <- in_port;
        inst.ring.(i) <- work.(j)
      done;
      batch_sweep ~collect:false inst k;
      for i = 0 to k - 1 do
        st.sent <- st.sent + 1;
        st.instrs <- st.instrs + inst.totals.(i);
        st.max_instrs <- max st.max_instrs inst.totals.(i);
        count_final st inst.finals.(i);
        inst.ring.(i) <- dummy_packet
      done;
      pos := !pos + k
    done);
  st

let pp_final fmt = function
  | Egress e -> Format.fprintf fmt "egress %d" e
  | Dropped_at n -> Format.fprintf fmt "dropped at node %d" n
  | Crashed_at (n, c) ->
    Format.fprintf fmt "CRASH at node %d: %a" n Ir.pp_crash c
  | Hop_budget_at n ->
    Format.fprintf fmt "hop budget exceeded at node %d" n

let pp_run fmt r =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun s ->
      Format.fprintf fmt "%-16s %a (%d instrs)@," s.element Ir.pp_outcome
        s.outcome s.instrs)
    r.steps;
  Format.fprintf fmt "=> %a, %d instructions total@]" pp_final r.final
    r.total_instrs
