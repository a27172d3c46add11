(* Provenance: answer "why did event E (not) make it into metric M?"
   with the per-event ledger.

   Every pipeline run can account for every raw event's fate — the
   noise-filter verdict with its max-RNMSE and tau, the projection
   residual against its tolerance, the QRCP pick round (with the
   runner-up gap) or elimination reason, and the final metric
   coefficients.  The ledger gathers all of it into one queryable
   document, exportable as versioned JSON.

   Run with: dune exec examples/explain_event.exe *)

module Ledger = Provenance.Ledger

let () =
  print_endline "eventlab provenance: the audit trail of a pipeline run\n";

  (* The ledger is derived from the finished result.  Asking the run
     to record it reuses the run's own QRCP factorization; without
     that, Pipeline.ledger assembles the same document on demand. *)
  let run = { Core.Run.default with record_ledger = true } in
  let result = Core.Pipeline.run ~run Core.Category.Cpu_flops in
  let ledger = Core.Pipeline.ledger result in

  (* Stage totals: every event has exactly one terminal fate. *)
  let t = Ledger.totals ledger in
  Printf.printf
    "%d events: %d all-zero, %d noisy, %d unrepresentable, %d eliminated, \
     %d chosen\n\n"
    t.events t.all_zero t.noisy t.unrepresentable t.eliminated t.chosen;

  (* The decision chain for one chosen event: why it made the cut. *)
  let first_chosen, _ = List.hd (Ledger.chosen_in_order ledger) in
  print_endline "--- a chosen event ---";
  print_string (Ledger.chain ledger first_chosen);

  (* And for one eliminated event: the QRCP found it numerically
     dependent on the events already picked. *)
  (match
     List.find_opt
       (fun e ->
         match Ledger.fate e with Ledger.Eliminated _ -> true | _ -> false)
       ledger.Ledger.entries
   with
  | Some e ->
    print_endline "\n--- an eliminated event ---";
    print_string (Ledger.chain ledger e)
  | None -> ());

  (* The whole ledger exports as versioned JSON (the `analyze explain
     --json` CLI path); shards over disjoint event ranges merge back
     losslessly, so a sharded catalog sweep still yields one audit
     trail. *)
  let json = Jsonio.to_string (Ledger.to_json ledger) in
  Printf.printf "\nJSON export: %d bytes (schema version %d)\n"
    (String.length json) Ledger.schema_version;
  let reimported =
    match Jsonio.of_string json with
    | Ok j -> (
      match Ledger.of_json j with
      | Ok l -> l
      | Error msg -> failwith msg)
    | Error msg -> failwith msg
  in
  Printf.printf "round-trip lossless: %b\n" (Ledger.equal ledger reimported)
