(** Imperative construction of IR programs.

    A builder holds a set of blocks under construction; instructions are
    appended to the {e selected} block, and a block is finished by
    giving it a terminator. [finish] checks that every created block was
    terminated and returns the immutable program. *)

module B = Vdp_bitvec.Bitvec
open Types

type pending_block = {
  mutable rev_instrs : instr list;
  mutable terminator : terminator option;
}

type t = {
  prog_name : string;
  mutable widths : int list;    (* reversed *)
  mutable nregs : int;
  mutable blocks : pending_block array;
  mutable nblocks : int;
  mutable current : int;
  mutable decls : store_decl list;  (* reversed *)
  mutable nports : int;
}

let create ~name =
  let entry = { rev_instrs = []; terminator = None } in
  {
    prog_name = name;
    widths = [];
    nregs = 0;
    blocks = Array.make 8 entry;
    nblocks = 1;
    current = 0;
    decls = [];
    nports = 1;
  }

let reg b ~width =
  if width < 1 then invalid_arg "Builder.reg: width < 1";
  let r = b.nregs in
  b.nregs <- r + 1;
  b.widths <- width :: b.widths;
  r

let new_block b =
  if b.nblocks = Array.length b.blocks then begin
    let arr =
      Array.make (2 * b.nblocks) { rev_instrs = []; terminator = None }
    in
    Array.blit b.blocks 0 arr 0 b.nblocks;
    b.blocks <- arr
  end;
  let label = b.nblocks in
  b.blocks.(label) <- { rev_instrs = []; terminator = None };
  b.nblocks <- label + 1;
  label

let select b label =
  if label < 0 || label >= b.nblocks then invalid_arg "Builder.select";
  b.current <- label

let current b = b.current

let instr b i =
  let blk = b.blocks.(b.current) in
  if blk.terminator <> None then
    invalid_arg "Builder.instr: block already terminated";
  blk.rev_instrs <- i :: blk.rev_instrs

let term b t =
  let blk = b.blocks.(b.current) in
  if blk.terminator <> None then
    invalid_arg "Builder.term: block already terminated";
  blk.terminator <- Some t

let declare_store b decl = b.decls <- decl :: b.decls
let set_nports b n = b.nports <- n

(* {1 Expression conveniences — each allocates a destination register} *)

let assign b ~width rhs =
  let r = reg b ~width in
  instr b (Assign (r, rhs));
  r

let const v = Const v

let width_of b = function
  | Const v -> B.width v
  | Reg r -> List.nth b.widths (b.nregs - 1 - r)

let binop b op x y =
  let w = width_of b x in
  assign b ~width:w (Binop (op, x, y))

let add b x y = binop b Add x y
let sub b x y = binop b Sub x y
let band b x y = binop b And x y
let bor b x y = binop b Or x y
let shl b x y = binop b Shl x y
let lshr b x y = binop b Lshr x y

let cmp b op x y = assign b ~width:1 (Cmp (op, x, y))
let eq b x y = cmp b Eq x y
let ne b x y = cmp b Ne x y
let ult b x y = cmp b Ult x y
let ule b x y = cmp b Ule x y

let load b ~off ~n =
  let r = reg b ~width:(8 * n) in
  instr b (Load (r, off, n));
  r

let store b ~off ~n v = instr b (Store (off, v, n))

let load_len b =
  let r = reg b ~width:16 in
  instr b (Load_len r);
  r

let meta_get b m =
  let r = reg b ~width:(meta_width m) in
  instr b (Meta_get (r, m));
  r

let kv_read b ~store:name ~key ~val_width =
  let r = reg b ~width:val_width in
  instr b (Kv_read (r, name, key));
  r

let extract b ~hi ~lo x = assign b ~width:(hi - lo + 1) (Extract (hi, lo, x))
let zext b ~width x = assign b ~width (Zext (width, x))
let select_val b ~width c x y = assign b ~width (Select (c, x, y))

(* {1 Structured control flow} *)

(** [if_ b cond then_ else_] — runs each continuation in a fresh block
    and rejoins in a new block which becomes current (unless both arms
    terminated). Arms report whether they fell through via [`Fallthrough]
    or ended the path via [`Closed]. *)
let if_ b cond then_branch else_branch =
  let tb = new_block b and eb = new_block b in
  term b (Branch (cond, tb, eb));
  select b tb;
  let t_state = then_branch () in
  let t_open = (t_state = `Fallthrough, current b) in
  select b eb;
  let e_state = else_branch () in
  let e_open = (e_state = `Fallthrough, current b) in
  match (t_open, e_open) with
  | (false, _), (false, _) -> `Closed
  | _ ->
    let join = new_block b in
    (match t_open with
    | true, blk ->
      select b blk;
      term b (Goto join)
    | false, _ -> ());
    (match e_open with
    | true, blk ->
      select b blk;
      term b (Goto join)
    | false, _ -> ());
    select b join;
    `Fallthrough

let finish b =
  let blocks =
    Array.init b.nblocks (fun i ->
        let blk = b.blocks.(i) in
        match blk.terminator with
        | Some t -> { instrs = List.rev blk.rev_instrs; term = t }
        | None ->
          invalid_arg
            (Printf.sprintf "Builder.finish(%s): block %d not terminated"
               b.prog_name i))
  in
  let reg_widths = Array.of_list (List.rev b.widths) in
  {
    name = b.prog_name;
    reg_widths;
    blocks;
    stores = List.rev b.decls;
    nports = b.nports;
  }
