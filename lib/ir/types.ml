(** The packet-processing element IR.

    Elements are written in (or compiled to) this small imperative
    language. The same programs are executed concretely by the dataplane
    runtime ({!Interp}) and symbolically by the verifier — the OCaml
    analogue of the paper running S2E over the element binaries.

    The language enforces the paper's state discipline by construction:
    - {e packet state} — the packet window, read/written via
      [Load]/[Store]/[Pull]/[Push] and metadata annotations;
    - {e private state} — key/value stores declared [Private], visible
      only to the owning element;
    - {e static state} — key/value stores declared [Static], readable
      but never writable.

    There is no other mutable state, and no channel between elements
    except handing the packet to an output port. *)

module B = Vdp_bitvec.Bitvec

type reg = int

type rvalue =
  | Const of B.t
  | Reg of reg

type unop =
  | Not
  | Neg

type binop =
  | Add | Sub | Mul | Udiv | Urem | Sdiv | Srem
  | And | Or | Xor | Shl | Lshr | Ashr

type cmpop = Eq | Ne | Ult | Ule | Slt | Sle

type rhs =
  | Move of rvalue
  | Unop of unop * rvalue
  | Binop of binop * rvalue * rvalue
  | Cmp of cmpop * rvalue * rvalue      (** result width 1 *)
  | Select of rvalue * rvalue * rvalue  (** cond (width 1), then, else *)
  | Extract of int * int * rvalue       (** hi, lo *)
  | Concat of rvalue * rvalue
  | Zext of int * rvalue
  | Sext of int * rvalue

(** Packet metadata annotations (Click's packet annotations). *)
type meta =
  | Port   (** input port, 8 bits *)
  | Color  (** paint annotation, 8 bits *)
  | W0     (** scratch word (e.g. next-hop address), 32 bits *)
  | W1     (** scratch word, 32 bits *)

let meta_width = function Port | Color -> 8 | W0 | W1 -> 32

type instr =
  | Assign of reg * rhs
  | Load of reg * rvalue * int
      (** [Load (dst, off, n)] — read [n] (1-16) bytes big-endian at
          byte offset [off] (16-bit rvalue, relative to head) into [dst]
          (width 8n). Out-of-window access crashes. *)
  | Store of rvalue * rvalue * int
      (** [Store (off, value, n)] — write [n] bytes big-endian. *)
  | Load_len of reg  (** packet length in bytes; [dst] has width 16 *)
  | Pull of int      (** strip bytes from the front; crashes if too long *)
  | Push of int      (** prepend zeroed bytes; crashes if headroom exhausted *)
  | Take of rvalue   (** truncate packet to the given 16-bit length *)
  | Meta_get of reg * meta
  | Meta_set of meta * rvalue
  | Kv_read of reg * string * rvalue
      (** [Kv_read (dst, store, key)] — [dst] gets the stored value or
          the store's default. *)
  | Kv_write of string * rvalue * rvalue  (** store, key, value *)
  | Assert of rvalue * string
      (** crash with the given message if the width-1 condition is 0 *)

type terminator =
  | Goto of int
  | Branch of rvalue * int * int  (** cond (width 1), then-block, else-block *)
  | Emit of int                   (** deliver the packet to an output port *)
  | Drop
  | Abort of string               (** unconditional crash (unreachable code) *)

type block = {
  instrs : instr list;
  term : terminator;
}

type store_kind =
  | Static   (** read-only as far as the pipeline is concerned *)
  | Private  (** read/write, owned by exactly one element *)

type store_decl = {
  store_name : string;
  key_width : int;
  val_width : int;
  kind : store_kind;
  default : B.t;                 (** returned on missing keys *)
  init : Static_data.t;
      (** contents: live (mutable, shared) for [Static] stores; the
          per-instance starting state for [Private] ones *)
}

(* Smart constructor: builds the store's [Static_data] contents from an
   association list with the declared widths. *)
let store ~name ~key_width ~val_width ~kind ~default ?(init = []) () :
    store_decl =
  {
    store_name = name;
    key_width;
    val_width;
    kind;
    default;
    init = Static_data.of_list ~key_width ~val_width init;
  }

type program = {
  name : string;
  reg_widths : int array;        (** register [r] has width [reg_widths.(r)] *)
  blocks : block array;          (** entry is block 0 *)
  stores : store_decl list;
  nports : int;                  (** number of output ports *)
}

(** {1 Crash taxonomy — what "crash-freedom" rules out} *)

type crash =
  | Assert_failed of string
  | Out_of_bounds of string  (** load/store/pull/take outside the window *)
  | Headroom_exhausted
  | Div_by_zero
  | Aborted of string
  | Budget_exhausted         (** runaway loop: instruction budget exceeded *)

type outcome =
  | Emitted of int
  | Dropped
  | Crashed of crash

let pp_crash fmt = function
  | Assert_failed m -> Format.fprintf fmt "assertion failed: %s" m
  | Out_of_bounds m -> Format.fprintf fmt "out-of-bounds access: %s" m
  | Headroom_exhausted -> Format.pp_print_string fmt "headroom exhausted"
  | Div_by_zero -> Format.pp_print_string fmt "division by zero"
  | Aborted m -> Format.fprintf fmt "abort: %s" m
  | Budget_exhausted -> Format.pp_print_string fmt "instruction budget exhausted"

let pp_outcome fmt = function
  | Emitted p -> Format.fprintf fmt "emit(%d)" p
  | Dropped -> Format.pp_print_string fmt "drop"
  | Crashed c -> Format.fprintf fmt "crash(%a)" pp_crash c

let rvalue_width prog = function
  | Const v -> B.width v
  | Reg r -> prog.reg_widths.(r)
