(** Runtime state of an element's key/value stores.

    Static stores are read-through views of their declared
    {!Static_data} contents — no copy, so a 1M-entry FIB instantiates in
    O(1) and a config mutation is visible to the runtime immediately.
    The interpreter rejects writes to them. Private stores start from a
    copy of their declared contents and evolve as packets are
    processed.

    Private tables hold native words ({!B.to_words}): [int] to [int]
    when key and value both fit one word, key words to value words
    otherwise. The compiled runtime binds a store's table once and reads
    and writes it straight from its register file; {!read}, {!write}
    and {!entries} convert bitvectors at the edge. *)

module B = Vdp_bitvec.Bitvec
open Types

(* Multiplication carries low bits upward only; the xor folds the well
   mixed high half back into the low bits the tables index by. *)
let mix h =
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = mix
end)

module Words_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b =
    let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
    Array.length a = Array.length b && go (Array.length a - 1)

  let hash a = Array.fold_left (fun h x -> mix (h lxor x)) 0 a
end)

type table =
  | Narrow of int Int_tbl.t
  | Wide of int array Words_tbl.t  (** values are updated in place *)

type store = {
  decl : store_decl;
  key_words : int;
  val_words : int;
  table : table;  (** private stores and compiled static snapshots *)
  default : int array;  (** [decl.default] as words *)
  scratch : int array;  (** the lookup key of {!get_words} *)
}

type t = (string, store) Hashtbl.t

let words v =
  let a = Array.make (B.nwords (B.width v)) 0 in
  B.to_words v a 0;
  a

(** An empty table for [decl]'s widths. *)
let make decl =
  let key_words = B.nwords decl.key_width in
  let val_words = B.nwords decl.val_width in
  let table =
    if key_words = 1 && val_words = 1 then Narrow (Int_tbl.create 64)
    else Wide (Words_tbl.create 64)
  in
  { decl; key_words; val_words; table; default = words decl.default;
    scratch = Array.make key_words 0 }

(** Clear [s]'s table in place and load [decl.init]'s current contents:
    compiled closures hold on to the table. *)
let refill s =
  match s.table with
  | Narrow h ->
    Int_tbl.reset h;
    Static_data.iter
      (fun k v -> Int_tbl.replace h (B.to_int_trunc k) (B.to_int_trunc v))
      s.decl.init
  | Wide h ->
    Words_tbl.reset h;
    Static_data.iter (fun k v -> Words_tbl.replace h (words k) (words v))
      s.decl.init

let init (decls : store_decl list) : t =
  let state = Hashtbl.create (max 4 (List.length decls)) in
  List.iter
    (fun decl ->
      if Hashtbl.mem state decl.store_name then
        invalid_arg ("Stores.init: duplicate store " ^ decl.store_name);
      let s = make decl in
      if decl.kind = Private then refill s;
      Hashtbl.replace state decl.store_name s)
    decls;
  state

let find state name =
  match Hashtbl.find_opt state name with
  | Some s -> s
  | None -> invalid_arg ("Stores: undeclared store " ^ name)

(** {1 Word access}

    [get_int]/[Int_tbl.replace] on a {!Narrow} table, [get_words]/
    [set_words] on a {!Wide} one, with the key words at [regs.(k) ..]
    and the value words at [regs.(d) ..]. *)

let get_int s h key =
  match Int_tbl.find h key with v -> v | exception Not_found -> s.default.(0)

(* [Array.blit] minus the C call, for the few words of a key or value. *)
let copy src so dst d n =
  for i = 0 to n - 1 do
    Array.unsafe_set dst (d + i) (Array.unsafe_get src (so + i))
  done

(* The table's own value array (or the default): copy it out. *)
let get_words s h regs k =
  copy regs k s.scratch 0 s.key_words;
  match Words_tbl.find h s.scratch with
  | v -> v
  | exception Not_found -> s.default

let set_words s h regs k d =
  copy regs k s.scratch 0 s.key_words;
  match Words_tbl.find h s.scratch with
  | v -> copy regs d v 0 s.val_words
  | exception Not_found ->
    Words_tbl.add h (Array.copy s.scratch) (Array.sub regs d s.val_words)

(** {1 Bitvector access} *)

let read state name key =
  let s = find state name in
  if B.width key <> s.decl.key_width then
    invalid_arg ("Stores.read: key width mismatch in " ^ name);
  let width = s.decl.val_width in
  match (s.decl.kind, s.table) with
  | Static, _ ->
    Option.value (Static_data.find s.decl.init key) ~default:s.decl.default
  | Private, Narrow h -> B.of_int ~width (get_int s h (B.to_int_trunc key))
  | Private, Wide h -> B.of_words ~width (get_words s h (words key) 0) 0

let write state name key value =
  let s = find state name in
  if s.decl.kind = Static then
    invalid_arg ("Stores.write: store is static: " ^ name);
  if B.width key <> s.decl.key_width || B.width value <> s.decl.val_width
  then invalid_arg ("Stores.write: width mismatch in " ^ name);
  match s.table with
  | Narrow h -> Int_tbl.replace h (B.to_int_trunc key) (B.to_int_trunc value)
  | Wide h ->
    set_words s h (Array.append (words key) (words value)) 0 s.key_words

let reset state =
  Hashtbl.iter (fun _ s -> if s.decl.kind = Private then refill s) state

let entries state name =
  let s = find state name in
  let kw = s.decl.key_width and vw = s.decl.val_width in
  match (s.decl.kind, s.table) with
  | Static, _ -> Static_data.to_list s.decl.init
  | Private, Narrow h ->
    Int_tbl.fold
      (fun k v acc -> (B.of_int ~width:kw k, B.of_int ~width:vw v) :: acc)
      h []
  | Private, Wide h ->
    Words_tbl.fold
      (fun k v acc -> (B.of_words ~width:kw k 0, B.of_words ~width:vw v 0) :: acc)
      h []
