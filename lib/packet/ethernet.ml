(** Ethernet II framing. *)

let header_len = 14
let ethertype_ipv4 = 0x0800
let ethertype_arp = 0x0806
let ethertype_vlan = 0x8100
let ethertype_ipv6 = 0x86dd

type mac = string (* 6 bytes *)

let mac_of_string s =
  (* "aa:bb:cc:dd:ee:ff" *)
  let bad () = invalid_arg ("Ethernet.mac_of_string: bad address " ^ s) in
  let parts = String.split_on_char ':' s in
  if List.length parts <> 6 then bad ();
  String.concat ""
    (List.map
       (fun h ->
         match int_of_string_opt ("0x" ^ h) with
         | Some v when v >= 0 && v <= 255 -> String.make 1 (Char.chr v)
         | _ -> bad ())
       parts)

let mac_to_string m =
  String.concat ":"
    (List.init 6 (fun i -> Printf.sprintf "%02x" (Char.code m.[i])))

let broadcast = "\xff\xff\xff\xff\xff\xff"

type t = { dst : mac; src : mac; ethertype : int }

let parse (p : Packet.t) =
  if Packet.length p < header_len then None
  else
    Some
      {
        dst = String.init 6 (fun i -> Char.chr (Packet.get_u8 p i));
        src = String.init 6 (fun i -> Char.chr (Packet.get_u8 p (6 + i)));
        ethertype = Packet.get_be p 12 2;
      }

let write (p : Packet.t) t =
  Packet.blit_string p 0 t.dst;
  Packet.blit_string p 6 t.src;
  Packet.set_be p 12 2 t.ethertype

(** Prepend an Ethernet header to [p]. *)
let encap (p : Packet.t) ~dst ~src ~ethertype =
  Packet.push p header_len;
  write p { dst; src; ethertype }

let header ~dst ~src ~ethertype =
  let b = Bytes.create header_len in
  Bytes.blit_string dst 0 b 0 6;
  Bytes.blit_string src 0 b 6 6;
  Bytes.set b 12 (Char.chr (ethertype lsr 8));
  Bytes.set b 13 (Char.chr (ethertype land 0xff));
  Bytes.to_string b
