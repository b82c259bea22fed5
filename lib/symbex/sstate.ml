(** Symbolic machine state for one element execution.

    The packet is modelled window-relative: byte [j] of the {e input}
    window is the 8-bit variable [p\[j\]]; the input length is the
    16-bit variable [p.len]. Pull/Push shift a concrete [head] cursor
    (all head adjustments in the IR are compile-time constants), and
    writes land in an override map keyed by absolute buffer offset, so
    a segment summary can report exactly which output bytes differ from
    the input and where the output window sits. *)

module B = Vdp_bitvec.Bitvec
module T = Vdp_smt.Term
module Interval = Vdp_smt.Interval
module Ir = Vdp_ir.Types

let byte_var j = Printf.sprintf "p[%d]" j
let len_var = "p.len"
let meta_var m = "p." ^ (match m with
  | Ir.Port -> "port" | Ir.Color -> "color" | Ir.W0 -> "w0" | Ir.W1 -> "w1")

(** Internal (renameable) variables are prefixed with '!': fresh values
    returned by key/value store reads and havocked loop state. *)
let internal_prefix = '!'
let is_internal name = name <> "" && name.[0] = internal_prefix

type kv_event =
  | Kv_read of { store : string; key : T.t; value : T.t; cond : T.t }
      (** [value] is the fresh variable the read returned;
          [cond] is the path condition at the time of the read. *)
  | Kv_write of { store : string; key : T.t; value : T.t; cond : T.t }

type t = {
  regs : T.t array;
  mutable path : T.t list;           (* reversed conjuncts *)
  mutable env : Interval.env;
      (* [path]'s running interval environment, extended by [assume] *)
  overrides : (int, T.t) Hashtbl.t;  (* absolute offset -> byte term *)
  mutable head : int;                (* absolute; initial = headroom *)
  mutable min_head : int;            (* lowest head reached (Push dips) *)
  headroom : int;
  mutable len : T.t;                 (* 16-bit *)
  mutable meta : (Ir.meta * T.t) list;
  mutable kv_log : kv_event list;    (* reversed *)
  mutable instrs : int;
  mutable extra_instrs : int;        (* upper-bound slack from loop summaries *)
  mutable fresh_counter : int ref;   (* shared across forks of one run *)
  mutable block : int;
  mutable visits : (int, int) Hashtbl.t;  (* block -> visit count *)
  mutable havocked_packet : bool;
      (* set when a loop summary replaced packet contents wholesale;
         byte reads then return per-offset havoc variables *)
  mutable havoc_epoch : int;
}

let create ~headroom =
  let counter = ref 0 in
  {
    regs = [||];
    path = [];
    env = Interval.empty_env;
    overrides = Hashtbl.create 32;
    head = headroom;
    min_head = headroom;
    headroom;
    len = T.var len_var 16;
    meta = [];
    kv_log = [];
    instrs = 0;
    extra_instrs = 0;
    fresh_counter = counter;
    block = 0;
    visits = Hashtbl.create 16;
    havocked_packet = false;
    havoc_epoch = 0;
  }

(* Registers start as zero, matching the interpreter. *)
let init ~headroom (prog : Ir.program) =
  let st = create ~headroom in
  { st with regs = Array.map (fun w -> T.bv (B.zero w)) prog.Ir.reg_widths }

let fresh st ?(hint = "v") width =
  incr st.fresh_counter;
  T.var (Printf.sprintf "%c%s%d" internal_prefix hint !(st.fresh_counter)) width

let clone st =
  {
    st with
    overrides = Hashtbl.copy st.overrides;
    regs = Array.copy st.regs;
    visits = Hashtbl.copy st.visits;
  }

(* [env], when given, must be [Interval.extend st.env cond]: a fork
   that tested [cond] against the path passes the extension it made. *)
let assume ?env st cond =
  if not (T.is_true cond) then begin
    st.path <- cond :: st.path;
    st.env <-
      (match env with
      | Some env -> env
      | None -> Interval.extend st.env cond)
  end

let path_conjuncts st = List.rev st.path
let path_term st = T.and_ (path_conjuncts st)

(** Read the byte at absolute buffer offset [abs]. *)
let byte_abs st abs =
  match Hashtbl.find_opt st.overrides abs with
  | Some t -> t
  | None ->
    if st.havocked_packet then begin
      (* Lazily materialise a stable havoc variable per offset. *)
      let name =
        Printf.sprintf "%chv%d_%d" internal_prefix st.havoc_epoch abs
      in
      T.var name 8
    end
    else if abs >= st.headroom then
      T.var (byte_var (abs - st.headroom)) 8
    else T.bv (B.zero 8) (* headroom bytes are zeroed *)

(** Read the byte at a {e concrete} window offset. *)
let byte st off = byte_abs st (st.head + off)

let write_byte st off term = Hashtbl.replace st.overrides (st.head + off) term

let meta_term st m =
  match List.assoc_opt m st.meta with
  | Some t -> t
  | None -> T.var (meta_var m) (Ir.meta_width m)

let set_meta st m t = st.meta <- (m, t) :: List.remove_assoc m st.meta

(** Drop all knowledge of packet contents (loop summarisation). Length,
    head and metadata are preserved. *)
let havoc_packet st =
  Hashtbl.reset st.overrides;
  st.havocked_packet <- true;
  st.havoc_epoch <- !(st.fresh_counter);
  incr st.fresh_counter

let record_kv st ev = st.kv_log <- ev :: st.kv_log
