(* LPM structures (the trie vs the DIR-16-8-8 FIB behind
   RadixIPLookup), classifier. *)

module Lpm = Vdp_tables.Lpm
module Cls = Vdp_tables.Classifier
module P = Vdp_packet.Packet
module Ipv4 = Vdp_packet.Ipv4

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ip = Ipv4.addr_of_string

let opt_int = Alcotest.(check (option int))

(* The FIB seen as a next-hop table, as the trie is: a route's next hop
   is its output port (0-254). *)
module Dir = struct
  module Fib = Vdp_click.El_lookup.Fib

  let route (prefix, plen, port) =
    { Vdp_click.El_lookup.prefix; plen; gw = 0; port }

  (* No table here is looked up by store id, so each leaves the FIB
     registry at once and is freed after its test. *)
  let unregistered t =
    List.iter (Hashtbl.remove Fib.registry) (Fib.store_ids t);
    t

  let of_routes routes =
    unregistered (Fib.create ~nports:255 (List.map route routes))

  let create () = unregistered (Fib.create ~nports:255 [])
  let insert t ~prefix ~len nh = Fib.insert t (route (prefix, len, nh))
  let delete t ~prefix ~len = Fib.delete t ~prefix ~plen:len
  let lookup t addr = Option.map snd (Fib.lookup t addr)
  let count = Fib.count
end

let sample_routes =
  [
    (ip "0.0.0.0", 0, 0);
    (ip "10.0.0.0", 8, 1);
    (ip "10.1.0.0", 16, 2);
    (ip "10.1.2.0", 24, 3);
    (ip "192.168.0.0", 16, 4);
  ]

let unit_tests =
  [
    Alcotest.test_case "trie longest match" `Quick (fun () ->
        let t = Lpm.of_list sample_routes in
        opt_int "default" (Some 0) (Lpm.lookup t (ip "8.8.8.8"));
        opt_int "/8" (Some 1) (Lpm.lookup t (ip "10.200.0.1"));
        opt_int "/16" (Some 2) (Lpm.lookup t (ip "10.1.99.1"));
        opt_int "/24" (Some 3) (Lpm.lookup t (ip "10.1.2.200"));
        opt_int "other /16" (Some 4) (Lpm.lookup t (ip "192.168.44.5")));
    Alcotest.test_case "trie without default" `Quick (fun () ->
        let t = Lpm.of_list [ (ip "10.0.0.0", 8, 1) ] in
        opt_int "miss" None (Lpm.lookup t (ip "11.0.0.1")));
    Alcotest.test_case "dir agrees on samples" `Quick (fun () ->
        let d = Dir.of_routes sample_routes in
        opt_int "default" (Some 0) (Dir.lookup d (ip "8.8.8.8"));
        opt_int "/24" (Some 3) (Dir.lookup d (ip "10.1.2.200"));
        opt_int "/16 behind /24" (Some 2) (Dir.lookup d (ip "10.1.3.1")));
    Alcotest.test_case "dir handles /32" `Quick (fun () ->
        let d =
          Dir.of_routes [ (ip "0.0.0.0", 0, 0); (ip "10.1.2.3", 32, 9) ]
        in
        opt_int "host" (Some 9) (Dir.lookup d (ip "10.1.2.3"));
        opt_int "neighbour" (Some 0) (Dir.lookup d (ip "10.1.2.4")));
    Alcotest.test_case "classifier patterns" `Quick (fun () ->
        let t = Cls.parse [ "12/0800"; "12/0806 20/0001"; "-" ] in
        let ipv4_frame =
          P.create (String.make 12 '\000' ^ "\x08\x00" ^ String.make 20 '\000')
        in
        opt_int "ip" (Some 0) (Cls.classify t ipv4_frame);
        let arp_req =
          P.create
            (String.make 12 '\000' ^ "\x08\x06" ^ String.make 6 '\000'
           ^ "\x00\x01" ^ String.make 10 '\000')
        in
        opt_int "arp request" (Some 1) (Cls.classify t arp_req);
        let other = P.create (String.make 14 '\xff') in
        opt_int "fallthrough" (Some 2) (Cls.classify t other);
        (* Short frame can't match the 14-byte patterns, falls to '-' *)
        let short = P.create "abc" in
        opt_int "short" (Some 2) (Cls.classify t short));
    Alcotest.test_case "classifier with mask" `Quick (fun () ->
        let t = Cls.parse [ "0/40%f0" ] in
        opt_int "0x45 matches" (Some 0) (Cls.classify t (P.create "\x45"));
        opt_int "0x40 matches" (Some 0) (Cls.classify t (P.create "\x40"));
        opt_int "0x55 no" None (Cls.classify t (P.create "\x55")));
  ]

let mask_of_len len =
  if len = 0 then 0 else 0xffffffff lxor ((1 lsl (32 - len)) - 1)

let random_route_list =
  QCheck.Gen.(
    let route =
      let* len = int_range 0 32 in
      let* hi = int_bound 0xffff in
      let* lo = int_bound 0xffff in
      let addr = (hi lsl 16) lor lo in
      let* nh = int_range 0 50 in
      return (addr land mask_of_len len, len, nh)
    in
    list_size (int_range 1 20) route)

let props =
  [
    QCheck.Test.make ~count:100 ~name:"dir agrees with trie"
      (QCheck.make
         ~print:(fun routes ->
           String.concat "; "
             (List.map
                (fun (p, l, n) ->
                  Printf.sprintf "%s/%d->%d" (Ipv4.addr_to_string p) l n)
                routes))
         random_route_list)
      (fun routes ->
        let trie = Lpm.of_list routes in
        let dir = Dir.of_routes routes in
        let st = Random.State.make [| 7 |] in
        let ok = ref true in
        for _ = 1 to 200 do
          let addr = Random.State.int st 0x3fffffff * 4 in
          (* On ties (same prefix+len inserted twice with different nh),
             both structures keep the last insert in their own order;
             restrict the check to unambiguous tables. *)
          if Lpm.lookup trie addr <> Dir.lookup dir addr then ok := false
        done;
        let unambiguous =
          let tbl = Hashtbl.create 16 in
          List.for_all
            (fun (p, l, _) ->
              let key = (p land (if l = 0 then 0 else 0xffffffff lxor ((1 lsl (32 - l)) - 1)), l) in
              if Hashtbl.mem tbl key then false
              else begin
                Hashtbl.add tbl key ();
                true
              end)
            routes
        in
        QCheck.assume unambiguous;
        !ok);
  ]

(* Randomized route tables that force the boundary prefix lengths: a
   /0 default, a batch of /32 host routes (trie depth 32, where the
   fold's shift arithmetic must stay defined), and random middles; then
   trie vs DIR agreement on a full sweep of a subspace plus random
   addresses across the whole space. *)
let boundary_tests =
  [
    Alcotest.test_case "random tables with /0 and /32, trie vs DIR" `Slow
      (fun () ->
        let st = Random.State.make [| 1337 |] in
        for _ = 1 to 5 do
          let base = Random.State.int st 0x3fffffff * 4 in
          let routes =
            (0, 0, 99)  (* default route *)
            :: List.init 16 (fun i ->
                   (* host routes clustered near [base] *)
                   ((base + i) land 0xffffffff, 32, 100 + i))
            @ List.init 40 (fun i ->
                  let len = 1 + Random.State.int st 31 in
                  let p = Random.State.int st 0x3fffffff * 4 in
                  let mask =
                    if len = 0 then 0
                    else 0xffffffff lxor ((1 lsl (32 - len)) - 1)
                  in
                  (p land mask, len, 200 + i))
          in
          (* Last insert wins in the trie; make the table unambiguous by
             keeping the first route per (prefix, len). *)
          let seen = Hashtbl.create 64 in
          let routes =
            List.filter
              (fun (p, l, _) ->
                let mask =
                  if l = 0 then 0
                  else 0xffffffff lxor ((1 lsl (32 - l)) - 1)
                in
                let key = (p land mask, l) in
                if Hashtbl.mem seen key then false
                else (Hashtbl.add seen key (); true))
              routes
          in
          let trie = Lpm.of_list routes in
          let dir = Dir.of_routes routes in
          (* Full-address sweep of the 2^12 subspace around the host
             routes: exercises /32 matches and their neighbours. *)
          let sweep_base = base land 0xfffff000 in
          for off = 0 to 4095 do
            let addr = sweep_base lor off in
            opt_int "sweep agree" (Lpm.lookup trie addr) (Dir.lookup dir addr)
          done;
          (* And random probes across the whole space. *)
          for _ = 1 to 2000 do
            let addr = Random.State.int st 0x3fffffff * 4 in
            opt_int "random agree" (Lpm.lookup trie addr)
              (Dir.lookup dir addr)
          done
        done);
    Alcotest.test_case "fold roundtrips /0 and /32 prefixes" `Quick
      (fun () ->
        let routes =
          [ (0, 0, 1); (ip "255.255.255.255", 32, 2); (ip "10.0.0.1", 32, 3);
            (ip "10.0.0.0", 8, 4); (ip "128.0.0.0", 1, 5) ]
        in
        let trie = Lpm.of_list routes in
        let collected =
          Lpm.fold (fun ~prefix ~len v acc -> (prefix, len, v) :: acc) trie []
        in
        check_int "all routes folded" (List.length routes)
          (List.length collected);
        List.iter
          (fun r ->
            check_bool "route present" true (List.mem r collected))
          routes;
        (* The deepest fold path reaches len = 32 exactly once per host
           route and must reproduce the full prefix bits. *)
        check_bool "/32 all-ones prefix intact" true
          (List.mem (ip "255.255.255.255", 32, 2) collected));
  ]

(* Out-of-order churn: routes inserted, updated and deleted in random
   length order must leave the DIR table equal to a trie rebuilt from
   the surviving routes. Guards the staleness bug where an insert
   shorter than an existing more-specific route clobbered the
   specific's expanded slots. *)
let churn_tests =
  [
    Alcotest.test_case "short-after-long insert keeps the specific" `Quick
      (fun () ->
        (* /20 first (allocates a low block), then /0 and /8 beneath
           it: the broader routes must fill only unowned slots. *)
        let dir = Dir.create () in
        Dir.insert dir ~prefix:(ip "10.0.16.0") ~len:20 1;
        Dir.insert dir ~prefix:0 ~len:0 2;
        Dir.insert dir ~prefix:(ip "10.0.0.0") ~len:8 3;
        opt_int "/20 survives /0 and /8" (Some 1)
          (Dir.lookup dir (ip "10.0.17.9"));
        opt_int "/8 covers the rest of 10/8" (Some 3)
          (Dir.lookup dir (ip "10.9.0.1"));
        opt_int "/0 covers everything else" (Some 2)
          (Dir.lookup dir (ip "192.0.2.1"));
        (* Deleting the specific uncovers the /8, then the /0. *)
        check_bool "delete /20" true
          (Dir.delete dir ~prefix:(ip "10.0.16.0") ~len:20);
        opt_int "falls back to /8" (Some 3)
          (Dir.lookup dir (ip "10.0.17.9"));
        check_bool "delete /8" true
          (Dir.delete dir ~prefix:(ip "10.0.0.0") ~len:8);
        opt_int "falls back to /0" (Some 2)
          (Dir.lookup dir (ip "10.0.17.9")));
  ]

let churn_props =
  [
    QCheck.Test.make ~count:60
      ~name:"dir agrees with trie under out-of-order churn"
      QCheck.(
        make
          ~print:(fun ops ->
            String.concat "; "
              (List.map
                 (fun (del, p, l, nh) ->
                   Printf.sprintf "%s %s/%d->%d"
                     (if del then "del" else "ins")
                     (Ipv4.addr_to_string p) l nh)
                 ops))
          Gen.(
            list_size (int_range 1 60)
              (let* del = int_bound 3 in
               let* len = int_range 0 32 in
               let* hi = int_bound 0xffff in
               let* lo = int_bound 0xffff in
               let* nh = int_range 0 50 in
               return
                 (del = 0, ((hi lsl 16) lor lo) land mask_of_len len, len, nh))))
      (fun ops ->
        let dir = Dir.create () in
        let model = Hashtbl.create 16 in
        List.iter
          (fun (del, p, l, nh) ->
            if del then begin
              (* Deleting a present key must succeed, an absent one
                 must report failure; the model tracks presence. *)
              let present = Hashtbl.mem model (p, l) in
              let deleted = Dir.delete dir ~prefix:p ~len:l in
              if deleted <> present then
                QCheck.Test.fail_reportf "delete %s/%d: %b, model %b"
                  (Ipv4.addr_to_string p) l deleted present;
              Hashtbl.remove model (p, l)
            end
            else begin
              Dir.insert dir ~prefix:p ~len:l nh;
              Hashtbl.replace model (p, l) nh
            end)
          ops;
        let trie = Lpm.create () in
        Hashtbl.iter
          (fun (p, l) nh -> Lpm.add trie ~prefix:p ~len:l nh)
          model;
        if Dir.count dir <> Hashtbl.length model then
          QCheck.Test.fail_reportf "count %d, model %d" (Dir.count dir)
            (Hashtbl.length model);
        let st = Random.State.make [| 99 |] in
        let probe addr =
          if Lpm.lookup trie addr <> Dir.lookup dir addr then
            QCheck.Test.fail_reportf "lookup %s: trie %s, dir %s"
              (Ipv4.addr_to_string addr)
              (match Lpm.lookup trie addr with
              | None -> "miss"
              | Some v -> string_of_int v)
              (match Dir.lookup dir addr with
              | None -> "miss"
              | Some v -> string_of_int v)
        in
        for _ = 1 to 300 do
          probe (Random.State.int st 0x3fffffff * 4)
        done;
        (* Probe each surviving route's own cone and its fringe. *)
        Hashtbl.iter
          (fun (p, l) _ ->
            probe p;
            probe (p lor (0xffffffff land lnot (mask_of_len l)));
            probe (p lxor 0x10000))
          model;
        true);
  ]

let tests =
  unit_tests @ boundary_tests @ churn_tests
  @ List.map QCheck_alcotest.to_alcotest (props @ churn_props)
