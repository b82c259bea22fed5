(* Quickstart: the paper's Fig. 2 in twenty lines.

   Build the two-element toy pipeline, prove it crash-free
   compositionally, then show that E2 alone is NOT crash-free and get
   the crashing packet.

     dune exec examples/quickstart.exe *)

module V = Vdp_verif.Verifier
module Report = Vdp_verif.Report
module P = Vdp_packet.Packet

let () =
  (* E1 clamps negatives; E2 asserts non-negative then clamps to >= 10. *)
  let pipeline = Vdp_click.El_toy.fig2_pipeline () in

  Format.printf "=== E1 -> E2 (the paper's Fig. 2 pipeline) ===@.";
  let report = V.check_crash_freedom pipeline in
  Format.printf "%a@." Report.pp_report report;

  Format.printf "=== E2 alone ===@.";
  let e2_only = Vdp_click.El_toy.e2_pipeline () in
  let report = V.check_crash_freedom e2_only in
  Format.printf "%a@." Report.pp_report report;

  (* Use the returned packet: drive the runtime into the crash. *)
  (match report.V.verdict with
  | V.Violated (v :: _) ->
    let pkt = v.V.replayed.Vdp_verif.Witness.packet in
    let inst = Vdp_click.Runtime.instantiate e2_only in
    let run = Vdp_click.Runtime.push inst (P.clone pkt) in
    Format.printf "replaying the witness on the runtime: %a@."
      Vdp_click.Runtime.pp_final run.Vdp_click.Runtime.final
  | _ -> ());

  (* The toy pipeline also terminates within a provable bound. *)
  Format.printf "@.=== instruction bound for E1 -> E2 ===@.";
  let bound = V.instruction_bound pipeline in
  Format.printf "%a@." Report.pp_bound_report bound
