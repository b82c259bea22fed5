(** A fabric: multiple pipelines wired output-to-input.

    This is the resolved, validated form of a [topology { ... }]
    section ({!Vdp_click.Config.topo}): pipelines indexed densely,
    links keyed by (pipeline, egress index), named fabric-level
    ingresses and egresses, and the declared relational properties.
    The module also owns the {e concrete} side of the story — a wired
    set of {!Vdp_click.Runtime} instances that pushes real packets
    across link crossings, which is what breach witnesses replay on.

    Conventions:
    - A pipeline's egress points are numbered as in
      {!Vdp_click.Pipeline.egress_points}; a link attaches one of them
      to the entry element of another pipeline at a given input port.
    - Crossing a link rewrites only the packet's port annotation (a
      link is a wire); bytes and other metadata carry over.
    - Fabric-level position tags are ["p<pipe>n<node>"] — the
      per-pipeline ["n<node>"] tags of {!Vdp_verif.Compose} prefixed
      with the pipeline index, so one composite state can span
      pipelines without tag collisions. *)

module Ir = Vdp_ir.Types
module P = Vdp_packet.Packet
module Pipeline = Vdp_click.Pipeline
module Config = Vdp_click.Config
module Runtime = Vdp_click.Runtime

exception Bad_fabric of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad_fabric m)) fmt

type pipe = {
  p_name : string;
  p_index : int;
  p_pl : Pipeline.t;
  p_egress : (int * int) array;
      (** egress index -> (node, out-port) of the unwired output *)
}

type t = {
  pipes : pipe array;
  links : (int * int, int * int) Hashtbl.t;
      (** (src pipe, egress index) -> (dst pipe, dst entry in-port) *)
  ingresses : (string * (int * int)) list;  (** name -> (pipe, in-port) *)
  egresses : (string * (int * int)) list;
      (** name -> (pipe, egress index); the egress must be unlinked *)
  props : Config.topo_prop list;
}

(* {1 Tags} *)

let tag ~pipe ~node = Printf.sprintf "p%dn%d" pipe node

(** Inverse of {!tag}; [None] for tags minted elsewhere. *)
let parse_tag s =
  if String.length s < 4 || s.[0] <> 'p' then None
  else
    match String.index_opt s 'n' with
    | None -> None
    | Some i -> (
      match
        ( int_of_string_opt (String.sub s 1 (i - 1)),
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
        )
      with
      | Some pi, Some n -> Some (pi, n)
      | _ -> None)

(* {1 Resolution} *)

let pipe t i = t.pipes.(i)

(* Resolve a Config.port_ref to (pipe index, egress index). *)
let resolve_egress pipes (r : Config.port_ref) =
  let pi =
    let rec go i =
      if i >= Array.length pipes then
        fail "unknown pipeline %s" r.Config.ref_pipeline
      else if pipes.(i).p_name = r.Config.ref_pipeline then i
      else go (i + 1)
    in
    go 0
  in
  let p = pipes.(pi) in
  match r.Config.ref_element with
  | None ->
    if r.Config.ref_port >= Array.length p.p_egress then
      fail "pipeline %s has %d egress points, no egress %d" p.p_name
        (Array.length p.p_egress) r.Config.ref_port;
    (pi, r.Config.ref_port)
  | Some el -> (
    let nodes = Pipeline.nodes p.p_pl in
    let node = ref (-1) in
    Array.iteri
      (fun i (n : Pipeline.node) ->
        if n.Pipeline.element.Vdp_click.Element.name = el then node := i)
      nodes;
    if !node < 0 then fail "pipeline %s has no element %s" p.p_name el;
    match Pipeline.egress_index p.p_pl ~node:!node ~port:r.Config.ref_port with
    | Some e -> (pi, e)
    | None ->
      fail "%s.%s[%d] is wired inside the pipeline — not an egress"
        p.p_name el r.Config.ref_port)

(** Resolve and validate a parsed topology. *)
let of_topo (topo : Config.topo) : t =
  if topo.Config.topo_pipelines = [] then fail "topology declares no pipeline";
  let pipes =
    Array.of_list
      (List.mapi
         (fun i (name, pl) ->
           {
             p_name = name;
             p_index = i;
             p_pl = pl;
             p_egress = Pipeline.egress_points pl;
           })
         topo.Config.topo_pipelines)
  in
  let links = Hashtbl.create 8 in
  List.iter
    (fun (src, dst, dport) ->
      let spi, se = resolve_egress pipes src in
      let dpi =
        let rec go i =
          if i >= Array.length pipes then fail "unknown pipeline %s" dst
          else if pipes.(i).p_name = dst then i
          else go (i + 1)
        in
        go 0
      in
      if Hashtbl.mem links (spi, se) then
        fail "egress %d of pipeline %s is linked twice" se pipes.(spi).p_name;
      Hashtbl.replace links (spi, se) (dpi, dport))
    topo.Config.topo_links;
  let t0 =
    {
      pipes;
      links;
      ingresses =
        List.map
          (fun (name, pl, port) ->
            let pi =
              let rec go i =
                if i >= Array.length pipes then fail "unknown pipeline %s" pl
                else if pipes.(i).p_name = pl then i
                else go (i + 1)
              in
              go 0
            in
            (name, (pi, port)))
          topo.Config.topo_ingresses;
      egresses =
        List.map
          (fun (name, r) ->
            let pi, e = resolve_egress pipes r in
            if Hashtbl.mem links (pi, e) then
              fail "fabric egress %s names a linked output" name;
            (name, (pi, e)))
          topo.Config.topo_egresses;
      props = topo.Config.topo_props;
    }
  in
  List.iter
    (fun p ->
      let name =
        match p with
        | Config.Reach (a, b) | Config.Isolate (a, b) | Config.Temporal (a, b)
          ->
          (a, b)
      in
      let a, b = name in
      if not (List.mem_assoc a t0.ingresses) then
        fail "property names unknown ingress %s" a;
      if not (List.mem_assoc b t0.egresses) then
        fail "property names unknown egress %s" b)
    t0.props;
  t0

let of_source path =
  match Config.parse_source_file path with
  | Config.Fabric topo -> of_topo topo
  | Config.Single _ ->
    fail "%s declares a single pipeline, not a topology" path

let ingress t name =
  match List.assoc_opt name t.ingresses with
  | Some x -> x
  | None -> fail "unknown ingress %s" name

let egress t name =
  match List.assoc_opt name t.egresses with
  | Some x -> x
  | None -> fail "unknown egress %s" name

(** The fabric egress name covering (pipe, egress index), if any. *)
let egress_name t ~pipe ~eg =
  List.fold_left
    (fun acc (name, (pi, e)) ->
      if pi = pipe && e = eg then Some name else acc)
    None t.egresses

(* {1 Concrete wired runtimes} *)

type instance = { fab : t; insts : Runtime.instance array }

let instantiate ?engine fab =
  {
    fab;
    insts =
      Array.map
        (fun p -> Runtime.instantiate ?engine ~label:p.p_name p.p_pl)
        fab.pipes;
  }

(** How a fabric-level run ended. *)
type ffinal =
  | F_egress of int * int  (** (pipe, egress index) — unlinked output *)
  | F_drop of int * int  (** (pipe, node) *)
  | F_crash of int * int * Ir.crash
  | F_budget of int * int  (** per-pipeline hop budget, or link-loop cap *)

type frun = {
  f_final : ffinal;
  f_steps : Runtime.step list;  (** concatenated, labeled per pipeline *)
  f_instrs : int;
  f_crossings : int;  (** links traversed *)
}

(* A packet that keeps bouncing between pipelines is cut off here —
   the symbolic side enumerates to the same depth. *)
let max_crossings = 16

(** Push one packet into [pipe] at [in_port] and follow link crossings.
    The packet object is mutated along the way, as in {!Runtime.push};
    crossing a link only rewrites its port annotation. *)
let push ?trace fi ~pipe ~in_port pkt =
  let steps = ref [] in
  let instrs = ref 0 in
  let rec go pi in_port crossings =
    let run = Runtime.push ~in_port ?trace fi.insts.(pi) pkt in
    steps := List.rev_append run.Runtime.steps !steps;
    instrs := !instrs + run.Runtime.total_instrs;
    match run.Runtime.final with
    | Runtime.Egress e -> (
      match Hashtbl.find_opt fi.fab.links (pi, e) with
      | Some (dpi, dport) ->
        if crossings >= max_crossings then (F_budget (pi, e), crossings)
        else go dpi dport (crossings + 1)
      | None -> (F_egress (pi, e), crossings))
    | Runtime.Dropped_at n -> (F_drop (pi, n), crossings)
    | Runtime.Crashed_at (n, c) -> (F_crash (pi, n, c), crossings)
    | Runtime.Hop_budget_at n -> (F_budget (pi, n), crossings)
  in
  let f_final, f_crossings = go pipe in_port 0 in
  {
    f_final;
    f_steps = List.rev !steps;
    f_instrs = !instrs;
    f_crossings;
  }

let ffinal_to_string fab = function
  | F_egress (pi, e) ->
    let extra =
      match egress_name fab ~pipe:pi ~eg:e with
      | Some n -> Printf.sprintf " (%s)" n
      | None -> ""
    in
    Printf.sprintf "egress %s[%d]%s" fab.pipes.(pi).p_name e extra
  | F_drop (pi, n) ->
    Printf.sprintf "drop at %s:node %d" fab.pipes.(pi).p_name n
  | F_crash (pi, n, c) ->
    Format.asprintf "crash at %s:node %d (%a)" fab.pipes.(pi).p_name n
      Ir.pp_crash c
  | F_budget (pi, n) ->
    Printf.sprintf "budget exceeded in %s at %d" fab.pipes.(pi).p_name n
