(** IPFilter — an ordered allow/deny rule list over the IPv4 5-tuple,
    compiled to IR (a small cousin of Click's IPFilter).

    Rule grammar (one rule per config argument, first match wins):

    {v
    allow src 10.0.0.0/8 dst 192.168.0.0/16 proto udp dport 53
    deny proto tcp dport 22
    allow all
    v}

    Packets matching an [allow] rule leave on port 0, [deny] matches
    are dropped, and packets matching no rule are dropped. A rule with
    port clauses only matches TCP/UDP packets whose port fields are
    within the frame; malformed-length packets never match such rules
    (and so fall through). Expects the IP header at offset 0. *)

module B = Vdp_bitvec.Bitvec
module Ir = Vdp_ir.Types
module Bld = Vdp_ir.Builder
module Ipv4 = Vdp_packet.Ipv4
open El_util

type action = Allow | Deny

type clause =
  | Src of int * int  (* prefix, masklen *)
  | Dst of int * int
  | Proto of int
  | Sport of int * int  (* inclusive range *)
  | Dport of int * int

type rule = { action : action; clauses : clause list }

let mask_of_len len =
  if len = 0 then 0 else 0xffffffff lxor ((1 lsl (32 - len)) - 1)

(* An integer field in [lo, hi]; [what] names it in the error. *)
let field what lo hi s =
  match int_of_string_opt s with
  | Some v when v >= lo && v <= hi -> v
  | _ -> invalid_arg (Printf.sprintf "IPFilter: bad %s %s" what s)

let parse_cidr s =
  match String.split_on_char '/' s with
  | [ addr; len ] -> (
    match int_of_string_opt len with
    | Some l when l >= 0 && l <= 32 -> (Ipv4.addr_of_string addr, l)
    | _ -> invalid_arg ("IPFilter: bad prefix length in " ^ s))
  | [ addr ] -> (Ipv4.addr_of_string addr, 32)
  | _ -> invalid_arg ("IPFilter: bad prefix " ^ s)

let parse_ports s =
  let port = field "port" 0 0xffff in
  match String.split_on_char '-' s with
  | [ p ] -> (port p, port p)
  | [ lo; hi ] -> (port lo, port hi)
  | _ -> invalid_arg ("IPFilter: bad port range " ^ s)

let parse_proto = function
  | "tcp" -> 6
  | "udp" -> 17
  | "icmp" -> 1
  | n -> field "protocol" 0 255 n

let parse_rule spec =
  let tokens =
    String.split_on_char ' ' (String.trim spec)
    |> List.filter (fun t -> t <> "")
  in
  match tokens with
  | [] -> invalid_arg "IPFilter: empty rule"
  | action :: rest ->
    let action =
      match String.lowercase_ascii action with
      | "allow" -> Allow
      | "deny" | "drop" -> Deny
      | a -> invalid_arg ("IPFilter: unknown action " ^ a)
    in
    let rec clauses = function
      | [] -> []
      | [ "all" ] -> []
      | "src" :: v :: rest ->
        let p, l = parse_cidr v in
        Src (p, l) :: clauses rest
      | "dst" :: v :: rest ->
        let p, l = parse_cidr v in
        Dst (p, l) :: clauses rest
      | "proto" :: v :: rest -> Proto (parse_proto v) :: clauses rest
      | "sport" :: v :: rest ->
        let lo, hi = parse_ports v in
        Sport (lo, hi) :: clauses rest
      | "dport" :: v :: rest ->
        let lo, hi = parse_ports v in
        Dport (lo, hi) :: clauses rest
      | t :: _ -> invalid_arg ("IPFilter: unknown clause " ^ t)
    in
    { action; clauses = clauses rest }

let needs_ports r =
  List.exists (function Sport _ | Dport _ -> true | _ -> false) r.clauses

(* Native reference semantics, used by tests as an oracle. *)
let rule_matches_packet r (p : Vdp_packet.Packet.t) =
  match Ipv4.parse p with
  | None -> false
  | Some h ->
    let hlen = h.Ipv4.ihl * 4 in
    let ports_ok =
      (h.Ipv4.proto = 6 || h.Ipv4.proto = 17)
      && Vdp_packet.Packet.length p >= hlen + 4
    in
    List.for_all
      (fun clause ->
        match clause with
        | Src (prefix, len) -> h.Ipv4.src land mask_of_len len = prefix land mask_of_len len
        | Dst (prefix, len) -> h.Ipv4.dst land mask_of_len len = prefix land mask_of_len len
        | Proto n -> h.Ipv4.proto = n
        | Sport (lo, hi) ->
          ports_ok
          &&
          let v = Vdp_packet.Packet.get_be p hlen 2 in
          lo <= v && v <= hi
        | Dport (lo, hi) ->
          ports_ok
          &&
          let v = Vdp_packet.Packet.get_be p (hlen + 2) 2 in
          lo <= v && v <= hi)
      r.clauses

let classify_packet rules p =
  match List.find_opt (fun r -> rule_matches_packet r p) rules with
  | Some { action = Allow; _ } -> `Allow
  | Some { action = Deny; _ } -> `Deny
  | None -> `Deny

(* {1 Compilation to IR} *)

let compile specs =
  let rules = List.map parse_rule specs in
  let b = Bld.create ~name:"IPFilter" in
  (* Shared field loads, guarded by a minimal length check. *)
  let len = Bld.load_len b in
  let has_hdr = Bld.cmp b Ir.Ule (c16 20) (Ir.Reg len) in
  guard_or_drop b (Ir.Reg has_hdr);
  let src = Bld.load b ~off:(c16 12) ~n:4 in
  let dst = Bld.load b ~off:(c16 16) ~n:4 in
  let proto = Bld.load b ~off:(c16 9) ~n:1 in
  let b0 = Bld.load b ~off:(c16 0) ~n:1 in
  let ihl = Bld.assign b ~width:8 (Ir.Binop (Ir.And, Ir.Reg b0, c8 0xf)) in
  let ihl16 = Bld.zext b ~width:16 (Ir.Reg ihl) in
  let hlen =
    Bld.assign b ~width:16 (Ir.Binop (Ir.Shl, Ir.Reg ihl16, c16 2))
  in
  (* ports_ok = proto in {tcp, udp} && hlen + 4 <= len *)
  let is_tcp = Bld.cmp b Ir.Eq (Ir.Reg proto) (c8 6) in
  let is_udp = Bld.cmp b Ir.Eq (Ir.Reg proto) (c8 17) in
  let l4 =
    Bld.assign b ~width:1 (Ir.Binop (Ir.Or, Ir.Reg is_tcp, Ir.Reg is_udp))
  in
  let after =
    Bld.assign b ~width:16 (Ir.Binop (Ir.Add, Ir.Reg hlen, c16 4))
  in
  let fits = Bld.cmp b Ir.Ule (Ir.Reg after) (Ir.Reg len) in
  let ports_ok =
    Bld.assign b ~width:1 (Ir.Binop (Ir.And, Ir.Reg l4, Ir.Reg fits))
  in
  (* Port loads happen inside a guarded block; rules needing ports jump
     there only when ports_ok. We pre-load into registers on the ok
     path and use a flag register on the other. *)
  let sport = Bld.reg b ~width:16 in
  let dport = Bld.reg b ~width:16 in
  Bld.instr b (Ir.Assign (sport, Ir.Move (c16 0)));
  Bld.instr b (Ir.Assign (dport, Ir.Move (c16 0)));
  let load_blk = Bld.new_block b and rules_blk = Bld.new_block b in
  Bld.term b (Ir.Branch (Ir.Reg ports_ok, load_blk, rules_blk));
  Bld.select b load_blk;
  let sp = Bld.load b ~off:(Ir.Reg hlen) ~n:2 in
  let off2 =
    Bld.assign b ~width:16 (Ir.Binop (Ir.Add, Ir.Reg hlen, c16 2))
  in
  let dp = Bld.load b ~off:(Ir.Reg off2) ~n:2 in
  Bld.instr b (Ir.Assign (sport, Ir.Move (Ir.Reg sp)));
  Bld.instr b (Ir.Assign (dport, Ir.Move (Ir.Reg dp)));
  Bld.term b (Ir.Goto rules_blk);
  Bld.select b rules_blk;
  (* Rule chain. *)
  let clause_cond clause =
    match clause with
    | Src (prefix, len) ->
      let masked =
        Bld.assign b ~width:32
          (Ir.Binop (Ir.And, Ir.Reg src, c32 (mask_of_len len)))
      in
      Bld.cmp b Ir.Eq (Ir.Reg masked) (c32 (prefix land mask_of_len len))
    | Dst (prefix, len) ->
      let masked =
        Bld.assign b ~width:32
          (Ir.Binop (Ir.And, Ir.Reg dst, c32 (mask_of_len len)))
      in
      Bld.cmp b Ir.Eq (Ir.Reg masked) (c32 (prefix land mask_of_len len))
    | Proto n -> Bld.cmp b Ir.Eq (Ir.Reg proto) (c8 n)
    | Sport (lo, hi) ->
      let ge = Bld.cmp b Ir.Ule (c16 lo) (Ir.Reg sport) in
      let le = Bld.cmp b Ir.Ule (Ir.Reg sport) (c16 hi) in
      Bld.assign b ~width:1 (Ir.Binop (Ir.And, Ir.Reg ge, Ir.Reg le))
    | Dport (lo, hi) ->
      let ge = Bld.cmp b Ir.Ule (c16 lo) (Ir.Reg dport) in
      let le = Bld.cmp b Ir.Ule (Ir.Reg dport) (c16 hi) in
      Bld.assign b ~width:1 (Ir.Binop (Ir.And, Ir.Reg ge, Ir.Reg le))
  in
  let rec chain = function
    | [] -> Bld.term b Ir.Drop (* default deny *)
    | rule :: rest ->
      let conds =
        (if needs_ports rule then [ Ir.Reg ports_ok ] else [])
        @ List.map (fun c -> Ir.Reg (clause_cond c)) rule.clauses
      in
      let matched =
        List.fold_left
          (fun acc c ->
            Ir.Reg (Bld.assign b ~width:1 (Ir.Binop (Ir.And, acc, c))))
          (c1 true) conds
      in
      let hit_blk = Bld.new_block b and next_blk = Bld.new_block b in
      Bld.term b (Ir.Branch (matched, hit_blk, next_blk));
      Bld.select b hit_blk;
      (match rule.action with
      | Allow -> Bld.term b (Ir.Emit 0)
      | Deny -> Bld.term b Ir.Drop);
      Bld.select b next_blk;
      chain rest
  in
  chain rules;
  Bld.finish b
