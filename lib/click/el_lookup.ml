(** Routing lookup elements.

    [StaticIPLookup] compiles the route table into a compare/branch
    chain (longest prefix first) — the table is static state baked into
    the code, which is what makes per-configuration reachability proofs
    meaningful.

    [RadixIPLookup] keeps the routes in a static key/value store indexed
    DIR-style by the top 16 address bits — one bounded store read per
    packet, demonstrating the paper's array-backed-structure approach.
    Prefixes longer than 16 bits fall back to a second store read. *)

module B = Vdp_bitvec.Bitvec
module Ir = Vdp_ir.Types
module Bld = Vdp_ir.Builder
module Sdata = Vdp_ir.Static_data
open El_util

type route = {
  prefix : int;   (** network byte-order 32-bit address *)
  plen : int;
  gw : int;       (** next-hop address annotation (0 = directly connected) *)
  port : int;
}

let parse_route spec =
  (* "10.0.0.0/8 1" or "10.0.0.0/8 192.168.0.1 1" *)
  let field what lo hi s =
    match int_of_string_opt s with
    | Some v when v >= lo && v <= hi -> v
    | _ ->
      invalid_arg (Printf.sprintf "bad %s %s in route %s" what s spec)
  in
  match String.split_on_char ' ' (String.trim spec)
        |> List.filter (fun s -> s <> "")
  with
  | [ cidr; port ] | [ cidr; _; port ] as parts -> (
    let gw =
      match parts with
      | [ _; gw; _ ] -> Vdp_packet.Ipv4.addr_of_string gw
      | _ -> 0
    in
    match String.split_on_char '/' cidr with
    | [ addr; len ] ->
      {
        prefix = Vdp_packet.Ipv4.addr_of_string addr;
        plen = field "prefix length" 0 32 len;
        gw;
        port = field "port" 0 254 port;
      }
    | _ -> invalid_arg ("bad route " ^ spec))
  | _ -> invalid_arg ("bad route " ^ spec)

let mask_of_len len =
  if len = 0 then 0 else 0xffffffff lxor ((1 lsl (32 - len)) - 1)

let static_ip_lookup routes =
  let routes =
    List.sort (fun r1 r2 -> Stdlib.compare r2.plen r1.plen) routes
  in
  let nports =
    List.fold_left (fun acc r -> max acc (r.port + 1)) 1 routes
  in
  let b = Bld.create ~name:"StaticIPLookup" in
  Bld.set_nports b nports;
  let dst = Bld.load b ~off:(c16 16) ~n:4 in
  let rec chain = function
    | [] -> Bld.term b Ir.Drop (* no route: drop (Click discards too) *)
    | r :: rest ->
      let masked =
        Bld.assign b ~width:32
          (Ir.Binop (Ir.And, Ir.Reg dst, c32 (mask_of_len r.plen)))
      in
      let hit =
        Bld.cmp b Ir.Eq (Ir.Reg masked) (c32 (r.prefix land mask_of_len r.plen))
      in
      let hit_blk = Bld.new_block b and miss_blk = Bld.new_block b in
      Bld.term b (Ir.Branch (Ir.Reg hit, hit_blk, miss_blk));
      Bld.select b hit_blk;
      Bld.instr b (Ir.Meta_set (Ir.W0, c32 r.gw));
      Bld.term b (Ir.Emit r.port);
      Bld.select b miss_blk;
      chain rest
  in
  chain routes;
  Bld.finish b

(** DIR-16-8-8: static store "lpm16" maps the top 16 address bits to a
    route word; "lpm24" maps the top 24 bits (prefixes /17–/24, and
    /25–/31 expanded); "lpm32" maps the full address (/25–/32 expanded
    into covered /32s — at most 128 per route). Route words are 48
    bits, [spill(1) | gw(32) | port+1(8)] packed as gw*256 + code, 0 =
    miss; the spill bit says a longer prefix may exist one level down,
    and a deeper miss falls back to the shallower word. *)
let route_word =
  (* memoized: a FIB has millions of slots but only as many distinct
     route words as (spill, next-hop, port) combinations, and sharing
     them keeps a million-entry bulk load from promoting a fresh
     bitvector per slot (values are immutable) *)
  let cache : (int, B.t) Hashtbl.t = Hashtbl.create 64 in
  fun ~spill ~gw ~port ->
    let w = (gw * 256) + (port + 1) in
    let w = if spill then w lor (1 lsl 40) else w in
    match Hashtbl.find_opt cache w with
    | Some b -> b
    | None ->
      let b = B.of_int ~width:48 w in
      Hashtbl.add cache w b;
      b

let spill_mask = B.lognot (B.shl (B.one 48) 40)

(** A mutable DIR-16-8-8 FIB backing a [RadixIPLookup] instance.

    The three levels live in shared {!Vdp_ir.Static_data} stores, so the
    runtime, the symbolic engine and witness replay all observe the same
    (current) contents, and every mutation notifies the staleness
    listeners with exactly the slots it rewrote — the "prefix cone" of
    the changed route. [insert]/[delete] are total in any order: each
    level records the prefix length owning every slot, a shorter prefix
    only overwrites slots owned by even shorter ones, and deleting a
    route restores the next-longest covering route of the same level
    (shallower levels are reached by the element's own miss fallback). *)
module Fib = struct
  (* Sparse int arrays in 256-slot pages. The owner/spill shadow tables
     cover up to 2^32 slots; a prefix cone is a power-of-two span
     aligned to its own size, so page-sized chunks of a cone are
     straight array writes and a million-route bulk load does a handful
     of hash operations per route instead of one per covered slot.
     [-1] = absent. *)
  module Pages = struct
    type t = (int, int array) Hashtbl.t

    let create () : t = Hashtbl.create 64

    let page (p : t) slot =
      let idx = slot lsr 8 in
      match Hashtbl.find_opt p idx with
      | Some a -> a
      | None ->
        let a = Array.make 256 (-1) in
        Hashtbl.add p idx a;
        a

    let get (p : t) slot =
      match Hashtbl.find_opt p (slot lsr 8) with
      | None -> -1
      | Some a -> Array.unsafe_get a (slot land 0xff)

    let set (p : t) slot v = (page p slot).(slot land 0xff) <- v

    let iter f (p : t) =
      Hashtbl.iter
        (fun idx a ->
          Array.iteri (fun o v -> if v >= 0 then f ((idx lsl 8) lor o) v) a)
        p
  end

  type t = {
    stores : Sdata.t array;  (** lpm16, lpm24, lpm32 *)
    own : Pages.t array;
        (** per level: slot -> owning route packed as
            [plen lsl 41 | gw lsl 8 | port] — unboxed to keep
            million-slot bulk loads allocation-free *)
    spills : Pages.t array;
        (** slot -> number of routes one level deeper, for levels 0/1 *)
    routes : (int, route) Hashtbl.t;
        (** (masked prefix lsl 6) lor plen -> route, the exact registry
            consulted for covering-route fallback on delete *)
    nports : int;
    mutable program : Ir.program option;  (** built once, memoized *)
    mutable muted : bool;
        (** bulk-load mode: suppress per-slot store writes; [flush]
            emits every live slot once at the end *)
  }

  let key_widths = [| 16; 24; 32 |]
  let level_of plen = if plen <= 16 then 0 else if plen <= 24 then 1 else 2
  let level_min = [| 0; 17; 25 |]
  let mask32 len = if len = 0 then 0 else 0xffffffff lsl (32 - len) land 0xffffffff
  let rkey prefix plen = ((prefix land mask32 plen) lsl 6) lor plen
  let slot_of level prefix = (prefix lsr (32 - key_widths.(level))) land ((1 lsl key_widths.(level)) - 1)

  (* All covered slots of [plen] at its own level: contiguous. *)
  let cone level prefix plen =
    let span = 1 lsl (key_widths.(level) - plen) in
    (slot_of level prefix land lnot (span - 1), span)

  let bkey level slot = B.of_int ~width:key_widths.(level) slot

  let pack_own ~plen ~gw ~port = (plen lsl 41) lor (gw lsl 8) lor port
  let own_plen v = v lsr 41
  let own_gw v = (v lsr 8) land 0xffffffff
  let own_port v = v land 0xff

  (* Re-derive and write the route word for one slot from the owner and
     spill tables — the single funnel for all store mutations. *)
  let emit t level slot =
    if t.muted then ()
    else begin
      let spill = level < 2 && Pages.get t.spills.(level) slot > 0 in
      let v = Pages.get t.own.(level) slot in
      if v >= 0 then
        Sdata.set t.stores.(level) (bkey level slot)
          (route_word ~spill ~gw:(own_gw v) ~port:(own_port v))
      else if spill then
        Sdata.set t.stores.(level) (bkey level slot)
          (route_word ~spill:true ~gw:0 ~port:(-1))
      else Sdata.remove t.stores.(level) (bkey level slot)
    end

  (* Write every live slot (owned or spill-marked) once. Used after a
     muted bulk load: a million-route build touches each covered slot
     many times as overlapping cones shadow each other, but only the
     final word per slot needs to reach the store. The stores are fresh
     and empty here (no consumer can have cached a view, each slot is
     visited once), so this takes the probe- and notification-free
     [preload_fresh] path. *)
  let flush t =
    Array.iteri
      (fun lv (own : Pages.t) ->
        let store = t.stores.(lv) in
        let spills : Pages.t =
          if lv < 2 then t.spills.(lv) else Hashtbl.create 1
        in
        Hashtbl.iter
          (fun idx a ->
            let sp = Hashtbl.find_opt spills idx in
            Array.iteri
              (fun o v ->
                if v >= 0 then
                  let spill =
                    match sp with Some b -> b.(o) > 0 | None -> false
                  in
                  Sdata.preload_fresh_int store
                    ((idx lsl 8) lor o)
                    (route_word ~spill ~gw:(own_gw v) ~port:(own_port v)))
              a)
          own;
        (* spill-marked slots with no owner of their own *)
        let spill_word = route_word ~spill:true ~gw:0 ~port:(-1) in
        Hashtbl.iter
          (fun idx b ->
            let ow = Hashtbl.find_opt own idx in
            Array.iteri
              (fun o n ->
                if
                  n > 0
                  && (match ow with Some a -> a.(o) < 0 | None -> true)
                then
                  Sdata.preload_fresh_int store ((idx lsl 8) lor o) spill_word)
              b)
          spills)
      t.own

  let bump t level slot delta =
    let n = max 0 (Pages.get t.spills.(level) slot) in
    let n' = n + delta in
    if n' < 0 then invalid_arg "Fib: spill underflow";
    Pages.set t.spills.(level) slot (if n' = 0 then -1 else n');
    (* Only the 0 <-> nonzero transitions change the emitted word. *)
    if (n = 0) <> (n' = 0) then emit t level slot

  let insert t (r : route) =
    if r.plen < 0 || r.plen > 32 then
      invalid_arg "RadixIPLookup: prefix length must be 0..32";
    if r.port < 0 || r.port >= t.nports then
      invalid_arg "RadixIPLookup: route port out of range";
    let key = rkey r.prefix r.plen in
    let existed = Hashtbl.mem t.routes key in
    Hashtbl.replace t.routes key r;
    let lv = level_of r.plen in
    if not existed then begin
      if lv >= 1 then bump t 0 (slot_of 0 r.prefix) 1;
      if lv = 2 then bump t 1 (slot_of 1 r.prefix) 1
    end;
    let base, span = cone lv r.prefix r.plen in
    let packed = pack_own ~plen:r.plen ~gw:r.gw ~port:r.port in
    (* page-sized chunks: a cone shorter than a page fits in one *)
    let rec sweep i remaining =
      if remaining > 0 then begin
        let a = Pages.page t.own.(lv) i in
        let off = i land 0xff in
        let n = min remaining (256 - off) in
        for j = 0 to n - 1 do
          let v = Array.unsafe_get a (off + j) in
          if v < 0 || own_plen v <= r.plen then begin
            Array.unsafe_set a (off + j) packed;
            emit t lv (i + j)
          end
        done;
        sweep (i + n) (remaining - n)
      end
    in
    sweep base span

  let delete t ~prefix ~plen =
    if plen < 0 || plen > 32 then
      invalid_arg "RadixIPLookup: prefix length must be 0..32";
    let key = rkey prefix plen in
    if not (Hashtbl.mem t.routes key) then false
    else begin
      Hashtbl.remove t.routes key;
      let lv = level_of plen in
      if lv >= 1 then bump t 0 (slot_of 0 prefix) (-1);
      if lv = 2 then bump t 1 (slot_of 1 prefix) (-1);
      (* Fallback: longest registered shorter route of the same level
         covering the cone (shallower levels are consulted by the
         element's own miss logic, so they don't refill these slots). *)
      let rec probe l =
        if l < level_min.(lv) then None
        else
          match Hashtbl.find_opt t.routes (rkey prefix l) with
          | Some r -> Some r
          | None -> probe (l - 1)
      in
      let fb = probe (plen - 1) in
      let fbv =
        match fb with
        | Some r -> pack_own ~plen:r.plen ~gw:r.gw ~port:r.port
        | None -> -1
      in
      let base, span = cone lv prefix plen in
      let rec sweep i remaining =
        if remaining > 0 then begin
          let a = Pages.page t.own.(lv) i in
          let off = i land 0xff in
          let n = min remaining (256 - off) in
          for j = 0 to n - 1 do
            let v = Array.unsafe_get a (off + j) in
            if v >= 0 && own_plen v = plen then begin
              Array.unsafe_set a (off + j) fbv;
              emit t lv (i + j)
            end
          done;
          sweep (i + n) (remaining - n)
        end
      in
      sweep base span;
      true
    end

  (* Reference lookup mirroring the element's IR logic exactly. *)
  let lookup t addr =
    let word level slot =
      match Sdata.find t.stores.(level) (bkey level slot) with
      | Some w -> B.to_int_trunc w
      | None -> 0
    in
    let w16 = word 0 ((addr lsr 16) land 0xffff) in
    let final = ref w16 in
    if w16 land (1 lsl 40) <> 0 then begin
      let w24 = word 1 ((addr lsr 8) land 0xffffff) in
      if w24 land 0xff <> 0 then final := w24;
      if w24 land (1 lsl 40) <> 0 then begin
        let w32 = word 2 (addr land 0xffffffff) in
        if w32 land 0xff <> 0 then final := w32
      end
    end;
    let code = !final land 0xff in
    if code = 0 then None else Some ((!final lsr 8) land 0xffffffff, code - 1)

  let count t = Hashtbl.length t.routes
  let nports t = t.nports
  let store_ids t = Array.to_list (Array.map Sdata.id t.stores)

  (* Fibs indexed by the Static_data id of their stores, so a CLI that
     only holds a parsed pipeline can find the handle to mutate. *)
  let registry : (int, t) Hashtbl.t = Hashtbl.create 16

  let create ?nports routes =
    let np =
      List.fold_left (fun acc r -> max acc (r.port + 1)) 1 routes
    in
    let np = match nports with Some n -> max n np | None -> np in
    let size =
      (* pre-size the stores for bulk loads: covered slots outnumber
         routes a few times over, and int-key resizing is cheap but not
         free at millions of entries *)
      min 4_194_304 (max 64 (2 * List.length routes))
    in
    let t =
      {
        stores =
          Array.map
            (fun kw -> Sdata.create ~size ~key_width:kw ~val_width:48 ())
            key_widths;
        own = [| Pages.create (); Pages.create (); Pages.create () |];
        spills = [| Pages.create (); Pages.create () |];
        routes = Hashtbl.create (max 16 (List.length routes));
        nports = np;
        program = None;
        muted = false;
      }
    in
    t.muted <- true;
    List.iter (insert t) routes;
    t.muted <- false;
    flush t;
    Array.iter (fun s -> Hashtbl.replace registry (Sdata.id s) t) t.stores;
    t

  let of_program (p : Ir.program) =
    List.find_map
      (fun (d : Ir.store_decl) ->
        if d.kind = Ir.Static then Hashtbl.find_opt registry (Sdata.id d.init)
        else None)
      p.stores
end

let radix_program (fib : Fib.t) =
  match fib.Fib.program with
  | Some p -> p
  | None ->
    let nports = fib.Fib.nports in
    let b = Bld.create ~name:"RadixIPLookup" in
    Bld.set_nports b nports;
    List.iteri
      (fun level name ->
        Bld.declare_store b
          {
            Ir.store_name = name;
            key_width = Fib.key_widths.(level);
            val_width = 48;
            kind = Ir.Static;
            default = B.zero 48;
            init = fib.Fib.stores.(level);
          })
      [ "lpm16"; "lpm24"; "lpm32" ];
    let dst = Bld.load b ~off:(c16 16) ~n:4 in
  let hi16 = Bld.extract b ~hi:31 ~lo:16 (Ir.Reg dst) in
  let w16 = Bld.kv_read b ~store:"lpm16" ~key:(Ir.Reg hi16) ~val_width:48 in
  let final = Bld.reg b ~width:48 in
  Bld.instr b (Ir.Assign (final, Ir.Move (Ir.Reg w16)));
  let spill_bit16 = Bld.extract b ~hi:40 ~lo:40 (Ir.Reg w16) in
  let l24_blk = Bld.new_block b and decide_blk = Bld.new_block b in
  Bld.term b (Ir.Branch (Ir.Reg spill_bit16, l24_blk, decide_blk));
  (* Level 24: prefer its word when it has a route code; maybe descend. *)
  Bld.select b l24_blk;
  let hi24 = Bld.extract b ~hi:31 ~lo:8 (Ir.Reg dst) in
  let w24 = Bld.kv_read b ~store:"lpm24" ~key:(Ir.Reg hi24) ~val_width:48 in
  let code24 = Bld.extract b ~hi:7 ~lo:0 (Ir.Reg w24) in
  let has24 = Bld.cmp b Ir.Ne (Ir.Reg code24) (c8 0) in
  let pick24 =
    Bld.select_val b ~width:48 (Ir.Reg has24) (Ir.Reg w24) (Ir.Reg final)
  in
  Bld.instr b (Ir.Assign (final, Ir.Move (Ir.Reg pick24)));
  let spill_bit24 = Bld.extract b ~hi:40 ~lo:40 (Ir.Reg w24) in
  let l32_blk = Bld.new_block b in
  Bld.term b (Ir.Branch (Ir.Reg spill_bit24, l32_blk, decide_blk));
  (* Level 32: exact /32 word wins; a miss keeps the shallower pick. *)
  Bld.select b l32_blk;
  let w32 = Bld.kv_read b ~store:"lpm32" ~key:(Ir.Reg dst) ~val_width:48 in
  let has32 = Bld.cmp b Ir.Ne (Ir.Reg w32) (Ir.Const (B.zero 48)) in
  let pick32 =
    Bld.select_val b ~width:48 (Ir.Reg has32) (Ir.Reg w32) (Ir.Reg final)
  in
  Bld.instr b (Ir.Assign (final, Ir.Move (Ir.Reg pick32)));
  Bld.term b (Ir.Goto decide_blk);
  Bld.select b decide_blk;
  let clean =
    Bld.assign b ~width:48
      (Ir.Binop (Ir.And, Ir.Reg final, Ir.Const spill_mask))
  in
  let code = Bld.extract b ~hi:7 ~lo:0 (Ir.Reg clean) in
  let has_route = Bld.cmp b Ir.Ne (Ir.Reg code) (c8 0) in
  guard_or_drop b (Ir.Reg has_route);
  let gw = Bld.extract b ~hi:39 ~lo:8 (Ir.Reg clean) in
  Bld.instr b (Ir.Meta_set (Ir.W0, Ir.Reg gw));
  (* Dispatch on the port encoded in the route word. *)
  let rec dispatch p =
    if p >= nports then Bld.term b Ir.Drop
    else begin
      let hit = Bld.cmp b Ir.Eq (Ir.Reg code) (c8 (p + 1)) in
      let hit_blk = Bld.new_block b and next_blk = Bld.new_block b in
      Bld.term b (Ir.Branch (Ir.Reg hit, hit_blk, next_blk));
      Bld.select b hit_blk;
      Bld.term b (Ir.Emit p);
      Bld.select b next_blk;
      dispatch (p + 1)
    end
  in
  dispatch 0;
  let p = Bld.finish b in
  fib.Fib.program <- Some p;
  p

let radix_ip_lookup routes = radix_program (Fib.create routes)
