(** Hash-consed terms over booleans and bit vectors.

    All construction goes through the smart constructors below, which
    maintain maximal sharing and perform aggressive constant folding and
    local rewriting. Terms are immutable; physical equality coincides
    with semantic-syntactic equality after normalisation, so [t.id] can
    be used as a hash key. *)

type bvbin =
  | Badd | Bsub | Bmul | Budiv | Burem | Bsdiv | Bsrem
  | Band | Bor | Bxor | Bshl | Blshr | Bashr

type cmp = Ult | Ule | Slt | Sle

type node =
  | True
  | False
  | Bool_var of string
  | Not of t
  | And of t array
  | Or of t array
  | Eq of t * t
  | Ite of t * t * t
  | Bv_const of Vdp_bitvec.Bitvec.t
  | Bv_var of string * int
  | Bv_bin of bvbin * t * t
  | Bv_not of t
  | Bv_neg of t
  | Bv_cmp of cmp * t * t
  | Extract of int * int * t  (** [Extract (hi, lo, t)] *)
  | Concat of t * t
  | Zext of int * t
  | Sext of int * t

and t = private { id : int; node : node; sort : Sort.t }

val sort : t -> Sort.t
val width : t -> int
(** Width of a bit-vector term; raises for booleans. *)

val equal : t -> t -> bool
val hash : t -> int
val compare : t -> t -> int

(** {1 Boolean constructors} *)

val tru : t
val fls : t
val bool_const : bool -> t
val bool_var : string -> t
val not_ : t -> t
val and_ : t list -> t
val or_ : t list -> t
val and2 : t -> t -> t
val or2 : t -> t -> t
val implies : t -> t -> t
val eq : t -> t -> t
val neq : t -> t -> t
val ite : t -> t -> t -> t

(** {1 Bit-vector constructors} *)

val bv : Vdp_bitvec.Bitvec.t -> t
val bv_int : width:int -> int -> t
val var : string -> int -> t
(** [var name width] — a symbolic bit vector. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val udiv : t -> t -> t
val urem : t -> t -> t
val sdiv : t -> t -> t
val srem : t -> t -> t
val band : t -> t -> t
val bor : t -> t -> t
val bxor : t -> t -> t
val bnot : t -> t
val bneg : t -> t
val shl : t -> t -> t
val lshr : t -> t -> t
val ashr : t -> t -> t
val ult : t -> t -> t
val ule : t -> t -> t
val ugt : t -> t -> t
val uge : t -> t -> t
val slt : t -> t -> t
val sle : t -> t -> t
val extract : hi:int -> lo:int -> t -> t
val concat : t -> t -> t
(** [concat hi lo]. *)

val zext : int -> t -> t
(** [zext w t] extends to total width [w]. *)

val sext : int -> t -> t

val is_true : t -> bool
val is_false : t -> bool
val const_value : t -> Vdp_bitvec.Bitvec.t option
(** [Some v] iff the term is a bit-vector constant. *)

(** {1 Traversal} *)

val children : t -> t list
val fold_subterms : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Folds over every distinct subterm exactly once (DAG traversal). *)

val free_vars : t -> (string * Sort.t) list
(** Distinct free variables, in no particular order. *)

val size : t -> int
(** Number of distinct subterms. *)

val substitute_vars :
  ?memo:(int, t) Hashtbl.t -> (string -> Sort.t -> t option) -> t -> t
(** Simultaneous substitution of variables (both bool and bv). The
    callback receives each variable's name and sort (so a rename can
    rebuild the variable without knowing widths a priori); a
    replacement must have the variable's sort. An optional
    caller-supplied memo table lets a batch of terms that share
    structure be rewritten in one DAG walk: pass the same table to
    every call made with the {e same} callback. *)

val rename_vars : (string -> string) -> t -> t
(** Rename every free variable. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
