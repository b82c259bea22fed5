(* The "app market" use case: an operator about to deploy third-party
   packet-processing elements into a working pipeline asks the verifier
   to certify each candidate against the pipeline it will join.

   SafeDPI passes. BuggyPeek (unchecked data-dependent offset),
   BuggyQuota (divides by the TTL) and BuggyNAT (asserts on port-pool
   exhaustion) are rejected — each with the concrete packet sequence
   that breaks it.

     dune exec examples/element_market.exe *)

module Click = Vdp_click
module V = Vdp_verif.Verifier
module Report = Vdp_verif.Report
module P = Vdp_packet.Packet

(* The operator's pipeline with a slot for the candidate element. *)
let pipeline_with candidate =
  Click.Pipeline.linear
    [
      Click.Registry.make ~name:"cl" ~cls:"Classifier" ~config:[ "12/0800" ];
      Click.Registry.make ~name:"strip" ~cls:"Strip" ~config:[ "14" ];
      Click.Registry.make ~name:"chk" ~cls:"CheckIPHeader" ~config:[];
      candidate;
      Click.Registry.make ~name:"ttl" ~cls:"DecIPTTL" ~config:[];
    ]

let certify ~cls ~config =
  let candidate = Click.Registry.make ~name:"candidate" ~cls ~config in
  let pl = pipeline_with candidate in
  Format.printf "@.=== candidate %s(%s) ===@." cls (String.concat ", " config);
  let t0 = Unix.gettimeofday () in
  let report = V.check_crash_freedom pl in
  let dt = Unix.gettimeofday () -. t0 in
  (match report.V.verdict with
  | V.Proved ->
    Format.printf "CERTIFIED: cannot crash this pipeline (%.2fs)@." dt
  | V.Unknown why -> Format.printf "NOT CERTIFIED: %s (%.2fs)@." why dt
  | V.Violated vs ->
    Format.printf "REJECTED: %d crashing input(s) found (%.2fs)@."
      (List.length vs) dt;
    List.iter
      (fun (v : V.violation) ->
        Format.printf "  %a at '%s'%s@." Vdp_symbex.Engine.pp_outcome
          v.V.outcome v.V.element
          (if v.V.confirmed then " — reproduced on the runtime" else
             if v.V.stateful then " — requires a particular state history"
             else "");
        let pkt = v.V.replayed.Vdp_verif.Witness.packet in
        if P.length pkt <= 64 then
          Format.printf "  crashing packet:@.%s@." (P.hex_dump pkt)
        else
          Format.printf "  crashing packet of %d bytes (first 32):@.%s@."
            (P.length pkt)
            (P.hex_dump
               (let q = P.clone pkt in
                P.take q 32;
                q)))
      vs);
  report

let () =
  (* A well-behaved candidate: bounded, checked payload scanning. *)
  let _ = certify ~cls:"SafeDPI" ~config:[ "144"; "32" ] in
  (* A scanner that trusts a header field as an offset. *)
  let _ = certify ~cls:"BuggyPeek" ~config:[] in
  (* An accountant that divides by the TTL. *)
  let _ = certify ~cls:"BuggyQuota" ~config:[ "100000" ] in
  (* A NAT that asserts instead of shedding load. *)
  let _ = certify ~cls:"BuggyNAT" ~config:[ "198.51.100.1" ] in
  (* The fixed NAT passes. *)
  let _ = certify ~cls:"IPRewriter" ~config:[ "198.51.100.1" ] in
  ()
