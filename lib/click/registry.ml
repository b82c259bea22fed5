(** Element class registry: class name + config strings -> element.

    This is what the config-file parser and the CLI instantiate
    through. Third-party classes can be registered at run time (the
    app-market scenario). *)

module Ipv4 = Vdp_packet.Ipv4
module Eth = Vdp_packet.Ethernet

exception Unknown_class of string
exception Bad_config of string * string

let constructors :
    (string, string list -> Vdp_ir.Types.program) Hashtbl.t =
  Hashtbl.create 32

let register cls f = Hashtbl.replace constructors cls f

let fail cls msg = raise (Bad_config (cls, msg))

let expect_empty cls = function
  | [] -> ()
  | _ -> fail cls "expects no configuration"

let int_arg cls s =
  match int_of_string_opt (String.trim s) with
  | Some n -> n
  | None -> fail cls ("not an integer: " ^ s)

let () =
  register "Discard" (fun cfg ->
      expect_empty "Discard" cfg;
      El_basic.discard ());
  register "Counter" (fun cfg ->
      expect_empty "Counter" cfg;
      El_basic.counter ());
  register "Paint" (function
    | [ c ] -> El_basic.paint (int_arg "Paint" c)
    | _ -> fail "Paint" "expects one color argument");
  register "Strip" (function
    | [ n ] -> El_basic.strip (int_arg "Strip" n)
    | _ -> fail "Strip" "expects one length argument");
  register "Unstrip" (function
    | [ n ] -> El_basic.unstrip (int_arg "Unstrip" n)
    | _ -> fail "Unstrip" "expects one length argument");
  register "EtherEncap" (function
    | [ ethertype; src; dst ] ->
      El_basic.ether_encap
        ~ethertype:(int_arg "EtherEncap" ethertype)
        ~src:(Eth.mac_of_string (String.trim src))
        ~dst:(Eth.mac_of_string (String.trim dst))
    | _ -> fail "EtherEncap" "expects ETHERTYPE, SRC, DST");
  register "EtherRewrite" (function
    | [ src; dst ] ->
      El_basic.ether_rewrite
        ~src:(Eth.mac_of_string (String.trim src))
        ~dst:(Eth.mac_of_string (String.trim dst))
    | _ -> fail "EtherRewrite" "expects SRC, DST");
  register "Classifier" (fun patterns ->
      if patterns = [] then fail "Classifier" "expects at least one pattern";
      El_classifier.compile patterns);
  register "CheckIPHeader" (fun cfg ->
      expect_empty "CheckIPHeader" cfg;
      El_ip.check_ip_header ());
  register "DecIPTTL" (fun cfg ->
      expect_empty "DecIPTTL" cfg;
      El_ip.dec_ip_ttl ());
  register "SetIPChecksum" (fun cfg ->
      expect_empty "SetIPChecksum" cfg;
      El_ip.set_ip_checksum ());
  register "IPGWOptions" (function
    | [ gw ] -> El_ip.ip_gw_options ~gw:(Ipv4.addr_of_string (String.trim gw))
    | _ -> fail "IPGWOptions" "expects the gateway address");
  register "StaticIPLookup" (fun routes ->
      if routes = [] then fail "StaticIPLookup" "expects route entries";
      El_lookup.static_ip_lookup (List.map El_lookup.parse_route routes));
  register "RadixIPLookup" (fun routes ->
      if routes = [] then fail "RadixIPLookup" "expects route entries";
      El_lookup.radix_ip_lookup (List.map El_lookup.parse_route routes));
  register "FlowCounter" (fun cfg ->
      expect_empty "FlowCounter" cfg;
      El_stateful.flow_counter ());
  register "IPRewriter" (function
    | [ ip ] ->
      El_stateful.ip_rewriter ~public_ip:(Ipv4.addr_of_string (String.trim ip))
    | _ -> fail "IPRewriter" "expects the public address");
  register "NATGateway" (function
    | [ ip ] ->
      El_stateful.nat_gateway ~public_ip:(Ipv4.addr_of_string (String.trim ip))
    | _ -> fail "NATGateway" "expects the public address");
  register "SafeDPI" (function
    | [ s; d ] ->
      El_market.safe_dpi ~signature:(int_arg "SafeDPI" s)
        ~depth:(int_arg "SafeDPI" d)
    | _ -> fail "SafeDPI" "expects SIGNATURE, DEPTH");
  register "BuggyPeek" (fun cfg ->
      expect_empty "BuggyPeek" cfg;
      El_market.buggy_peek ());
  register "BuggyQuota" (function
    | [ q ] -> El_market.buggy_quota ~quota:(int_arg "BuggyQuota" q)
    | _ -> fail "BuggyQuota" "expects the quota");
  register "BuggyCounter" (fun cfg ->
      expect_empty "BuggyCounter" cfg;
      El_market.buggy_counter ());
  register "BuggyNAT" (function
    | [ ip ] ->
      El_market.buggy_nat ~public_ip:(Ipv4.addr_of_string (String.trim ip))
    | _ -> fail "BuggyNAT" "expects the public address");
  register "ARPResponder" (function
    | [ ip; mac ] ->
      El_arp.arp_responder
        ~ip:(Ipv4.addr_of_string (String.trim ip))
        ~mac:(Eth.mac_of_string (String.trim mac))
    | _ -> fail "ARPResponder" "expects IP, MAC");
  register "ICMPError" (function
    | [ src; ty; code ] ->
      El_icmp.icmp_error
        ~src:(Ipv4.addr_of_string (String.trim src))
        ~icmp_type:(int_arg "ICMPError" ty)
        ~icmp_code:(int_arg "ICMPError" code)
    | _ -> fail "ICMPError" "expects SRC, TYPE, CODE");
  register "CheckLength" (function
    | [ n ] -> El_switch.check_length (int_arg "CheckLength" n)
    | _ -> fail "CheckLength" "expects the maximum length");
  register "CheckPaint" (function
    | [ c ] -> El_switch.check_paint (int_arg "CheckPaint" c)
    | _ -> fail "CheckPaint" "expects the color");
  register "HashSwitch" (function
    | [ off; len; n ] ->
      El_switch.hash_switch
        ~offset:(int_arg "HashSwitch" off)
        ~length:(int_arg "HashSwitch" len)
        ~nports:(int_arg "HashSwitch" n)
    | _ -> fail "HashSwitch" "expects OFFSET, LENGTH, NPORTS");
  register "RoundRobinSwitch" (function
    | [ n ] ->
      El_switch.round_robin_switch ~nports:(int_arg "RoundRobinSwitch" n)
    | _ -> fail "RoundRobinSwitch" "expects the port count");
  register "IPFilter" (fun rules ->
      if rules = [] then fail "IPFilter" "expects at least one rule";
      El_filter.compile rules)

let classes () =
  Hashtbl.fold (fun k _ acc -> k :: acc) constructors []
  |> List.sort String.compare

(* A constructor rejects its configuration with [Invalid_argument]
   naming the offending text; that surfaces as [Bad_config], without
   the class name the message may already start with. *)
let make ~name ~cls ~config =
  match Hashtbl.find_opt constructors cls with
  | None -> raise (Unknown_class cls)
  | Some f -> (
    match f config with
    | prog -> Element.make ~name ~cls ~config prog
    | exception Invalid_argument m ->
      let prefix = cls ^ ": " in
      fail cls
        (if String.starts_with ~prefix m then
           String.sub m (String.length prefix)
             (String.length m - String.length prefix)
         else m))
