(** Pipelines wired output-to-input, run on the concrete runtime: one
    labeled {!Runtime} instance per pipeline, and links from egress
    points into other pipelines' entry elements. Every witness replays
    on one; a standalone pipeline is the one-pipe case ({!of_pipeline}),
    labeled [""] and unlinked. Crossing a link only rewrites the
    packet's port annotation. Positions read [node %d] in an unlabeled
    pipeline and [<label>:node %d] in a labeled one. *)

type t = {
  pipes : (string * Pipeline.t) array;  (** label, pipeline *)
  links : (int * int, int * int) Hashtbl.t;
      (** (pipe, egress index) -> (pipe, entry in-port) *)
  names : (string * (int * int)) list;  (** egress name -> (pipe, egress) *)
}

let of_pipeline pl =
  { pipes = [| ("", pl) |]; links = Hashtbl.create 1; names = [] }

type instance = { wired : t; insts : Runtime.instance array }

let instantiate ?engine wired =
  let inst (label, pl) = Runtime.instantiate ?engine ~label pl in
  { wired; insts = Array.map inst wired.pipes }

(** How a wired run ended: in which pipe, and how in that pipe's terms,
    with every pipe's steps in execution order. *)
type run = {
  pipe : int;
  final : Runtime.final;
  steps : Runtime.step list;
  total_instrs : int;
  crossings : int;  (** links traversed *)
}

(* A packet that keeps bouncing between pipelines is cut off as it
   enters the next one: the symbolic side enumerates to the same
   depth. *)
let max_crossings = 16

(** Push one packet into [pipe] at [in_port] and follow link crossings.
    The packet is mutated along the way, as in {!Runtime.push}. *)
let push ?trace w ~pipe ~in_port pkt =
  let steps = ref [] and instrs = ref 0 in
  let rec go pi in_port crossings =
    let r = Runtime.push ~in_port ?trace w.insts.(pi) pkt in
    steps := List.rev_append r.Runtime.steps !steps;
    instrs := !instrs + r.Runtime.total_instrs;
    let link =
      match r.Runtime.final with
      | Runtime.Egress e -> Hashtbl.find_opt w.wired.links (pi, e)
      | _ -> None
    in
    match link with
    | None -> (pi, r.Runtime.final, crossings)
    | Some (dpi, dport) when crossings < max_crossings ->
      go dpi dport (crossings + 1)
    | Some (dpi, _) ->
      let entry = Pipeline.entry (snd w.wired.pipes.(dpi)) in
      (dpi, Runtime.Hop_budget_at entry, crossings)
  in
  let pipe, final, crossings = go pipe in_port 0 in
  { pipe; final; steps = List.rev !steps; total_instrs = !instrs; crossings }

(* {1 Positions and ends, for messages} *)

let site w ~pipe node =
  match fst w.pipes.(pipe) with
  | "" -> Printf.sprintf "node %d" node
  | label -> Printf.sprintf "%s:node %d" label node

(** The name of egress [(pipe, eg)], if it has one. *)
let egress_name w ~pipe ~eg =
  List.fold_left
    (fun acc (name, at) -> if at = (pipe, eg) then Some name else acc)
    None w.names

let egress_to_string w ~pipe e =
  match (fst w.pipes.(pipe), egress_name w ~pipe ~eg:e) with
  | "", _ -> Printf.sprintf "egress %d" e
  | label, None -> Printf.sprintf "egress %s[%d]" label e
  | label, Some name -> Printf.sprintf "egress %s[%d] (%s)" label e name

(** Where a run ended, e.g. [egress core[0] (wan)]. *)
let end_to_string w (r : run) =
  let pipe = r.pipe in
  match r.final with
  | Runtime.Egress e -> egress_to_string w ~pipe e
  | Runtime.Dropped_at n -> "drop at " ^ site w ~pipe n
  | Runtime.Crashed_at (n, c) ->
    Format.asprintf "crash at %s (%a)" (site w ~pipe n) Vdp_ir.Types.pp_crash c
  | Runtime.Hop_budget_at n -> "hop budget exceeded at " ^ site w ~pipe n
