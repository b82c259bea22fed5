(** A fabric: multiple pipelines wired output-to-input.

    This is the resolved, validated form of a [topology { ... }]
    section ({!Vdp_click.Config.topo}): pipelines indexed densely,
    links keyed by (pipeline, egress index), named fabric-level
    ingresses and egresses, and the declared relational properties.
    Its {e concrete} side is [wired]: the same pipelines and links as
    a {!Vdp_click.Wired.t}, which witnesses replay on.

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

module Pipeline = Vdp_click.Pipeline
module Config = Vdp_click.Config

exception Bad_fabric of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad_fabric m)) fmt

type pipe = {
  p_name : string;
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
  wired : Vdp_click.Wired.t;
}

(* {1 Tags} *)

let tag ~pipe ~node = Printf.sprintf "p%dn%d" pipe node

(** Inverse of {!tag}; [None] for tags minted elsewhere. *)
let parse_tag s = Scanf.sscanf_opt s "p%un%u%!" (fun pi n -> (pi, n))

(* {1 Resolution} *)

(* The index of the pipeline called [name]. *)
let pipe_named pipes name =
  let rec go i =
    if i >= Array.length pipes then fail "unknown pipeline %s" name
    else if pipes.(i).p_name = name then i
    else go (i + 1)
  in
  go 0

(* Resolve a Config.port_ref to (pipe index, egress index). *)
let resolve_egress pipes (r : Config.port_ref) =
  let pi = pipe_named pipes r.Config.ref_pipeline in
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
  let pipe (p_name, p_pl) =
    { p_name; p_pl; p_egress = Pipeline.egress_points p_pl }
  in
  let pipes = Array.of_list (List.map pipe topo.Config.topo_pipelines) in
  let links = Hashtbl.create 8 in
  List.iter
    (fun (src, dst, dport) ->
      let spi, se = resolve_egress pipes src in
      let dpi = pipe_named pipes dst in
      if Hashtbl.mem links (spi, se) then
        fail "egress %d of pipeline %s is linked twice" se pipes.(spi).p_name;
      Hashtbl.replace links (spi, se) (dpi, dport))
    topo.Config.topo_links;
  let egresses =
    List.map
      (fun (name, r) ->
        let pi, e = resolve_egress pipes r in
        if Hashtbl.mem links (pi, e) then
          fail "fabric egress %s names a linked output" name;
        (name, (pi, e)))
      topo.Config.topo_egresses
  in
  let t0 =
    {
      pipes;
      links;
      ingresses =
        List.map
          (fun (name, pl, port) -> (name, (pipe_named pipes pl, port)))
          topo.Config.topo_ingresses;
      egresses;
      props = topo.Config.topo_props;
      wired =
        {
          Vdp_click.Wired.pipes = Array.map (fun p -> (p.p_name, p.p_pl)) pipes;
          links;
          names = egresses;
        };
    }
  in
  List.iter
    (fun p ->
      let (Config.Reach (a, b) | Config.Isolate (a, b) | Config.Temporal (a, b))
          =
        p
      in
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
let egress_name t = Vdp_click.Wired.egress_name t.wired
