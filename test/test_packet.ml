(* Packet buffers, headers, checksums, generators. *)

module P = Vdp_packet.Packet
module Eth = Vdp_packet.Ethernet
module Ipv4 = Vdp_packet.Ipv4
module Udp = Vdp_packet.Udp
module Cks = Vdp_packet.Checksum
module Gen = Vdp_packet.Gen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let sample_frame () =
  Gen.frame_of_flow
    {
      Gen.src_ip = Ipv4.addr_of_string "10.1.2.3";
      dst_ip = Ipv4.addr_of_string "192.168.7.9";
      src_port = 4242;
      dst_port = 80;
      proto = Ipv4.proto_udp;
    }

let unit_tests =
  [
    Alcotest.test_case "window accessors" `Quick (fun () ->
        let p = P.create "abcdef" in
        check_int "len" 6 (P.length p);
        check_int "byte" (Char.code 'c') (P.get_u8 p 2);
        P.set_u8 p 2 0x7a;
        check_string "content" "abzdef" (P.content p));
    Alcotest.test_case "out of bounds raises" `Quick (fun () ->
        let p = P.create "abc" in
        check_bool "get" true
          (try ignore (P.get_u8 p 3); false with P.Out_of_bounds _ -> true);
        check_bool "get_be" true
          (try ignore (P.get_be p 2 2); false with P.Out_of_bounds _ -> true));
    Alcotest.test_case "pull/push roundtrip" `Quick (fun () ->
        let p = P.create "headerpayload" in
        P.pull p 6;
        check_string "stripped" "payload" (P.content p);
        P.push p 6;
        check_int "len back" 13 (P.length p);
        (* pushed bytes are zeroed *)
        check_int "zeroed" 0 (P.get_u8 p 0));
    Alcotest.test_case "pull too much raises" `Quick (fun () ->
        let p = P.create "ab" in
        check_bool "raises" true
          (try P.pull p 3; false with P.Out_of_bounds _ -> true));
    Alcotest.test_case "headroom exhaustion raises" `Quick (fun () ->
        let p = P.create ~headroom:4 "x" in
        check_bool "raises" true
          (try P.push p 5; false with P.Out_of_bounds _ -> true));
    Alcotest.test_case "get_be/set_be" `Quick (fun () ->
        let p = P.create "\x00\x00\x00\x00" in
        P.set_be p 0 4 0xdeadbeef;
        check_int "roundtrip" 0xdeadbeef (P.get_be p 0 4));
    Alcotest.test_case "mac conversions" `Quick (fun () ->
        let m = Eth.mac_of_string "02:00:aa:bb:cc:0f" in
        check_string "roundtrip" "02:00:aa:bb:cc:0f" (Eth.mac_to_string m));
    Alcotest.test_case "ip address conversions" `Quick (fun () ->
        check_string "roundtrip" "10.0.200.1"
          (Ipv4.addr_to_string (Ipv4.addr_of_string "10.0.200.1"));
        check_int "exact" ((10 lsl 24) lor 1) (Ipv4.addr_of_string "10.0.0.1"));
    Alcotest.test_case "well-formed frame parses" `Quick (fun () ->
        let p = sample_frame () in
        (match Eth.parse p with
        | Some e -> check_int "ethertype" Eth.ethertype_ipv4 e.Eth.ethertype
        | None -> Alcotest.fail "ethernet parse");
        P.pull p Eth.header_len;
        match Ipv4.parse p with
        | Some h ->
          check_int "version" 4 h.Ipv4.version;
          check_int "ihl" 5 h.Ipv4.ihl;
          check_int "proto" Ipv4.proto_udp h.Ipv4.proto;
          check_bool "header valid" true (Ipv4.header_ok p);
          check_int "total_len" (P.length p) h.Ipv4.total_len;
          (match Udp.parse ~off:20 p with
          | Some u ->
            check_int "sport" 4242 u.Udp.src_port;
            check_int "dport" 80 u.Udp.dst_port
          | None -> Alcotest.fail "udp parse")
        | None -> Alcotest.fail "ip parse");
    Alcotest.test_case "checksum detects corruption" `Quick (fun () ->
        let p = sample_frame () in
        P.pull p Eth.header_len;
        check_bool "valid" true (Ipv4.header_ok p);
        P.set_u8 p 8 (P.get_u8 p 8 lxor 0xff);
        check_bool "invalid after corruption" false (Ipv4.header_ok p));
    Alcotest.test_case "set_checksum repairs" `Quick (fun () ->
        let p = sample_frame () in
        P.pull p Eth.header_len;
        P.set_u8 p 8 7 (* change TTL *);
        check_bool "broken" false (Ipv4.header_ok p);
        Ipv4.set_checksum p;
        check_bool "repaired" true (Ipv4.header_ok p));
    Alcotest.test_case "options frame has correct ihl" `Quick (fun () ->
        let flow = { (Gen.random_flow (Random.State.make [| 1 |])) with
                     Gen.proto = Ipv4.proto_udp } in
        (* RR option: kind 7, len 7, ptr 4, one slot. Padded to 8. *)
        let options = "\x07\x07\x04\x00\x00\x00\x00" in
        let p = Gen.frame_with_options ~options flow in
        P.pull p Eth.header_len;
        match Ipv4.parse p with
        | Some h ->
          check_int "ihl" 7 h.Ipv4.ihl;
          check_bool "valid" true (Ipv4.header_ok p)
        | None -> Alcotest.fail "parse");
    Alcotest.test_case "rfc1071 example" `Quick (fun () ->
        (* Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> sum 0xddf2,
           checksum 0x220d. *)
        let data = "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
        check_int "checksum" 0x220d (Cks.checksum data 0 8));
    Alcotest.test_case "workload generation" `Quick (fun () ->
        let pkts = Gen.workload ~nflows:4 20 in
        check_int "count" 20 (List.length pkts);
        List.iter
          (fun p ->
            let p = P.clone p in
            P.pull p Eth.header_len;
            Alcotest.(check bool) "well-formed" true (Ipv4.header_ok p))
          pkts);
  ]

let alloc_tests =
  [
    Alcotest.test_case "packet checksum paths do not allocate" `Quick
      (fun () ->
        (* over_packet/valid_packet must read the buffer in place; the
           old Bytes.to_string copy cost ~270 words per call, so 1000
           calls would show up as hundreds of thousands of minor words.
           Allow a small slack for the Gc counter boxing itself. *)
        let p =
          P.create
            (Ipv4.header ~tos:0 ~total_len:20 ~ident:0 ~ttl:64
               ~proto:Ipv4.proto_udp ~src:0x0a000001 ~dst:0x0a000002 ())
        in
        ignore (Cks.over_packet p 0 20);
        ignore (Cks.valid_packet p 0 20);
        let before = Gc.minor_words () in
        for _ = 1 to 1_000 do
          ignore (Cks.over_packet p 0 20);
          ignore (Cks.valid_packet p 0 20)
        done;
        let delta = Gc.minor_words () -. before in
        Alcotest.(check bool)
          (Printf.sprintf "allocation-free (%.0f minor words)" delta)
          true (delta < 256.));
  ]

let props =
  [
    QCheck.Test.make ~count:200 ~name:"checksummed headers verify"
      QCheck.(pair (int_bound 0xffffffff) (int_bound 0xffffffff))
      (fun (src, dst) ->
        let h =
          Ipv4.header ~tos:0 ~total_len:20 ~ident:0 ~ttl:64
            ~proto:Ipv4.proto_udp ~src ~dst ()
        in
        Cks.valid h 0 20);
    QCheck.Test.make ~count:200 ~name:"clone isolates mutation"
      QCheck.(string_of_size (QCheck.Gen.int_range 1 64))
      (fun s ->
        let p = P.create s in
        let q = P.clone p in
        P.set_u8 q 0 ((P.get_u8 q 0 + 1) land 0xff);
        P.get_u8 p 0 = Char.code s.[0]);
  ]

(* {1 Parser fuzzing}

   Random bytes, or a well-formed IPv4 header and payload, after a
   random prefix, with an offset that is the header's, anywhere near
   the frame, negative, or past the end. The parsers must answer, never
   raise. *)

let gen_frame =
  QCheck.Gen.(
    let* prefix = string_size (int_range 0 24) in
    let* well_formed = bool in
    let* body =
      if well_formed then
        let* src = int_bound 0xffffff and* dst = int_bound 0xffffff in
        let* payload = string_size (int_range 0 32) in
        return
          (Ipv4.header ~tos:0 ~total_len:(20 + String.length payload)
             ~ident:0 ~ttl:64 ~proto:Ipv4.proto_udp ~src ~dst ()
          ^ payload)
      else string_size (int_range 0 64)
    in
    let* off =
      oneof
        [
          return (String.length prefix);
          int_range (-40) 120;
          oneofl [ min_int; max_int; -1 ];
        ]
    in
    return (well_formed && off = String.length prefix, prefix ^ body, off))

let arb_frame =
  QCheck.make
    ~print:(fun (_, s, off) -> Printf.sprintf "%S at offset %d" s off)
    gen_frame

(* [n] bytes fit at [off] in a frame of [len]. *)
let fits ~len off n = off >= 0 && off <= len - n

let parser_props =
  [
    QCheck.Test.make ~count:2000 ~name:"Ipv4.parse answers at any offset"
      arb_frame (fun (_, s, off) ->
        Option.is_some (Ipv4.parse ~off (P.create s))
        = fits ~len:(String.length s) off Ipv4.min_header_len);
    QCheck.Test.make ~count:2000 ~name:"Ipv4.header_ok answers at any offset"
      arb_frame (fun (at_header, s, off) ->
        let ok = Ipv4.header_ok ~off (P.create s) in
        (ok || not at_header)
        && ((not ok) || fits ~len:(String.length s) off Ipv4.min_header_len));
    QCheck.Test.make ~count:2000 ~name:"Ethernet.parse answers on any frame"
      arb_frame (fun (_, s, _) ->
        Option.is_some (Eth.parse (P.create s))
        = (String.length s >= Eth.header_len));
  ]

let tests =
  unit_tests @ alloc_tests
  @ List.map QCheck_alcotest.to_alcotest props
  @ List.map
      (QCheck_alcotest.to_alcotest ~rand:(Test_batch.qcheck_rand ()))
      parser_props
