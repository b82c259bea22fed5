(** IPv4 headers, including options. *)

let min_header_len = 20
let proto_icmp = 1
let proto_tcp = 6
let proto_udp = 17

type addr = int (* host-order 32-bit, always in [0, 2^32) *)

let addr_of_string s =
  let bad () = invalid_arg ("Ipv4.addr_of_string: bad address " ^ s) in
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
    let n x =
      match int_of_string_opt x with
      | Some v when v >= 0 && v <= 255 -> v
      | _ -> bad ()
    in
    (n a lsl 24) lor (n b lsl 16) lor (n c lsl 8) lor n d
  | _ -> bad ()

let addr_to_string a =
  Printf.sprintf "%d.%d.%d.%d"
    ((a lsr 24) land 0xff)
    ((a lsr 16) land 0xff)
    ((a lsr 8) land 0xff)
    (a land 0xff)

type option_kind =
  | Opt_eol        (* 0 *)
  | Opt_nop        (* 1 *)
  | Opt_rr         (* 7: record route *)
  | Opt_timestamp  (* 68 *)
  | Opt_other of int

let option_code = function
  | Opt_eol -> 0
  | Opt_nop -> 1
  | Opt_rr -> 7
  | Opt_timestamp -> 68
  | Opt_other c -> c

type t = {
  version : int;
  ihl : int;  (** header length in 32-bit words *)
  tos : int;
  total_len : int;
  ident : int;
  flags : int;
  frag_off : int;
  ttl : int;
  proto : int;
  checksum : int;
  src : addr;
  dst : addr;
}

(** Parse at offset [off] (relative to head); no validity checks beyond
    having 20 readable bytes. *)
let parse ?(off = 0) (p : Packet.t) =
  if Packet.length p < off + min_header_len then None
  else
    let b0 = Packet.get_u8 p off in
    Some
      {
        version = b0 lsr 4;
        ihl = b0 land 0xf;
        tos = Packet.get_u8 p (off + 1);
        total_len = Packet.get_be p (off + 2) 2;
        ident = Packet.get_be p (off + 4) 2;
        flags = Packet.get_u8 p (off + 6) lsr 5;
        frag_off = Packet.get_be p (off + 6) 2 land 0x1fff;
        ttl = Packet.get_u8 p (off + 8);
        proto = Packet.get_u8 p (off + 9);
        checksum = Packet.get_be p (off + 10) 2;
        src = Packet.get_be p (off + 12) 4;
        dst = Packet.get_be p (off + 16) 4;
      }

(** Serialise a header (without options) into a 20-byte string with a
    correct checksum unless [checksum] is forced. *)
let header ?checksum:cks ~tos ~total_len ~ident ~ttl ~proto ~src ~dst () =
  let b = Bytes.make min_header_len '\000' in
  Bytes.set b 0 (Char.chr 0x45);
  Bytes.set b 1 (Char.chr (tos land 0xff));
  Bytes.set b 2 (Char.chr ((total_len lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (total_len land 0xff));
  Bytes.set b 4 (Char.chr ((ident lsr 8) land 0xff));
  Bytes.set b 5 (Char.chr (ident land 0xff));
  Bytes.set b 8 (Char.chr (ttl land 0xff));
  Bytes.set b 9 (Char.chr (proto land 0xff));
  Bytes.set b 12 (Char.chr ((src lsr 24) land 0xff));
  Bytes.set b 13 (Char.chr ((src lsr 16) land 0xff));
  Bytes.set b 14 (Char.chr ((src lsr 8) land 0xff));
  Bytes.set b 15 (Char.chr (src land 0xff));
  Bytes.set b 16 (Char.chr ((dst lsr 24) land 0xff));
  Bytes.set b 17 (Char.chr ((dst lsr 16) land 0xff));
  Bytes.set b 18 (Char.chr ((dst lsr 8) land 0xff));
  Bytes.set b 19 (Char.chr (dst land 0xff));
  let c =
    match cks with
    | Some c -> c
    | None -> Checksum.checksum (Bytes.to_string b) 0 min_header_len
  in
  Bytes.set b 10 (Char.chr ((c lsr 8) land 0xff));
  Bytes.set b 11 (Char.chr (c land 0xff));
  Bytes.to_string b

(** Serialise a header with options. [options] is the raw option bytes;
    padded with EOL to a multiple of 4. *)
let header_with_options ?checksum:cks ~tos ~ident ~ttl ~proto ~src ~dst
    ~options ~payload_len () =
  let opt_len = 4 * ((String.length options + 3) / 4) in
  let ihl = 5 + (opt_len / 4) in
  if ihl > 15 then invalid_arg "Ipv4.header_with_options: too many options";
  let total_len = (ihl * 4) + payload_len in
  let base =
    header ~checksum:0 ~tos ~total_len ~ident ~ttl ~proto ~src ~dst ()
  in
  let b = Bytes.make (ihl * 4) '\000' in
  Bytes.blit_string base 0 b 0 min_header_len;
  Bytes.set b 0 (Char.chr (0x40 lor ihl));
  Bytes.blit_string options 0 b min_header_len (String.length options);
  let c =
    match cks with
    | Some c -> c
    | None -> Checksum.checksum (Bytes.to_string b) 0 (ihl * 4)
  in
  Bytes.set b 10 (Char.chr ((c lsr 8) land 0xff));
  Bytes.set b 11 (Char.chr (c land 0xff));
  Bytes.to_string b

(** Recompute and install the header checksum in place (header at
    offset [off], length [ihl] words read from the packet). *)
let set_checksum ?(off = 0) (p : Packet.t) =
  let ihl = Packet.get_u8 p off land 0xf in
  Packet.set_be p (off + 10) 2 0;
  let region = String.init (ihl * 4) (fun i -> Char.chr (Packet.get_u8 p (off + i))) in
  Packet.set_be p (off + 10) 2 (Checksum.checksum region 0 (ihl * 4))

(** The validity predicate CheckIPHeader implements. *)
let header_ok ?(off = 0) (p : Packet.t) =
  match parse ~off p with
  | None -> false
  | Some h ->
    h.version = 4 && h.ihl >= 5
    && Packet.length p >= off + (h.ihl * 4)
    && h.total_len >= h.ihl * 4
    && Packet.length p >= off + h.total_len
    &&
    let region =
      String.init (h.ihl * 4) (fun i -> Char.chr (Packet.get_u8 p (off + i)))
    in
    Checksum.valid region 0 (h.ihl * 4)
