(** Fixed-width bit vectors of arbitrary width.

    Values are immutable. All binary operations require both operands to
    have the same width and return a result of that width (except
    {!extract}, {!concat}, {!zext}, {!sext}). Division follows SMT-LIB
    semantics: [udiv x 0] is all-ones, [urem x 0] is [x]; this keeps the
    concrete interpreter and the bit-blasted solver in exact agreement. *)

type t

val width : t -> int
(** Width in bits; always [>= 1]. *)

(** {1 Construction} *)

val zero : int -> t
val one : int -> t
val ones : int -> t
(** [ones w] is the all-ones vector of width [w]. *)

val of_int : width:int -> int -> t
(** [of_int ~width n] truncates [n] (two's complement for negatives). *)

val of_int64 : width:int -> int64 -> t
val of_string : width:int -> string -> t
(** Accepts decimal, [0x...] hex, and [0b...] binary. Truncates. *)

val of_bytes_be : string -> t
(** Big-endian byte string; width is [8 * String.length]. *)

val of_bool : bool -> t
(** Width-1 vector: [true -> 1], [false -> 0]. *)

(** {1 Deconstruction} *)

val to_bytes_be : t -> string
(** Width must be a multiple of 8. *)

val to_int : t -> int option
(** [Some n] iff the unsigned value fits in a non-negative OCaml [int]. *)

val to_int_exn : t -> int
val to_int_trunc : t -> int
(** Low [Sys.int_size - 1] bits, as a non-negative [int]. *)

(** {2 Native words}

    A value of width [w] as [nwords w] unsigned [word_bits]-bit ints,
    least significant first, every word masked to its bits: the
    register layout of the compiled runtime and its private stores. *)

val word_bits : int
(** 61: two masked words sum without touching the [int] sign bit. *)

val nwords : int -> int
(** [nwords w] is [ceil (w / word_bits)]. *)

val to_words : t -> int array -> int -> unit
(** [to_words v dst off] writes the words of [v] to [dst.(off) ..]. *)

val of_words : width:int -> int array -> int -> t
(** [of_words ~width src off] reads [nwords width] words at [src.(off)];
    they must be masked as {!to_words} writes them. *)

val testbit : t -> int -> bool
val msb : t -> bool
val is_zero : t -> bool
val is_ones : t -> bool
val is_one : t -> bool
val is_true : t -> bool
(** For width-1 vectors: is the bit set? *)

(** {1 Comparison} *)

val equal : t -> t -> bool
val hash : t -> int
val compare : t -> t -> int
(** Total order: first by width, then unsigned value. *)

val compare_u : t -> t -> int
val compare_s : t -> t -> int
val ult : t -> t -> bool
val ule : t -> t -> bool
val slt : t -> t -> bool
val sle : t -> t -> bool

(** {1 Arithmetic (modular)} *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val udiv : t -> t -> t
val urem : t -> t -> t
val sdiv : t -> t -> t
val srem : t -> t -> t

(** {1 Bitwise} *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
val shl : t -> int -> t
val lshr : t -> int -> t
val ashr : t -> int -> t
val shl_bv : t -> t -> t
(** Shift amount given as a bit vector (same width); amounts [>= width]
    yield zero (or sign-fill for {!ashr_bv}). *)

val lshr_bv : t -> t -> t
val ashr_bv : t -> t -> t

(** {1 Width changes} *)

val extract : hi:int -> lo:int -> t -> t
(** Bits [hi..lo] inclusive; result width [hi - lo + 1]. *)

val concat : t -> t -> t
(** [concat hi lo]: [hi] becomes the most significant part. *)

val zext : int -> t -> t
(** [zext w v] zero-extends (or is the identity) to width [w >= width v]. *)

val sext : int -> t -> t

val popcount : t -> int

(** {1 Printing} *)

val to_string_hex : t -> string
(** [0x...] with full width (zero-padded). *)

val to_string_dec : t -> string
(** Unsigned decimal. *)

val pp : Format.formatter -> t -> unit
