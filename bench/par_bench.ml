(* Parallel-front benchmark: the sharded collect+classify front run
   through the executor at increasing --jobs, against the jobs=1
   sequential reference.

   Each sample times the front half (collection + classification of
   every shard, dispatched through [Core.Exec.map] exactly as the
   product's [Stage.run_sharded] does) and the merge + downstream
   half.  The installed [Obs.Recorder] is called directly from the
   worker domains: the collector is domain-safe (per-domain span
   stacks, one lock around the shared tables and sink dispatch), and
   readings are counted once per sweep, so the front takes that lock
   a few thousand times, not once per reading.  Every
   run is self-validating: the chosen events at jobs>1 must be
   bit-identical to the jobs=1 run of the same shard layout — the
   executor contract is byte-identity, so any divergence is a bug,
   not noise.

   The headline figure is the dcache front speedup at jobs=2.  It is
   recorded as an exact-match counter [speedup_ok_*]: 1.0 when either
   the machine cannot parallelize (fewer than 2 recommended domains —
   the speedup is then physically unobtainable and the correctness
   half of the contract is what the run certifies) or the measured
   speedup reaches 1.5x; 0.0 otherwise, which also fails the run.
   [bench_check]'s exact-match counter policy then gates the value
   across runs.  The recommended domain count is recorded in the
   manifest config so a reader can tell which arm applied.

   Usage:
     par_bench [--smoke] [--out FILE] [--check FILE] [--trajectory FILE]

   [--smoke] runs only the branch category (the [make check] entry
   point).  [--check FILE] strictly decodes FILE as a bench manifest
   and exits; it runs no benchmark. *)

let source_label = "bench:par"
let speedup_target = 1.5

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type sample = {
  category : string;
  shards : int;
  jobs : int;
  front_ms : float;  (* collection + classification, all shards *)
  merge_ms : float;  (* merge + downstream stages *)
  chosen : int;
}

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* One sharded run at a given concurrency, front dispatched through
   the executor the same way [Stage.run_sharded] dispatches it. *)
let run_one ~category ~shards ~jobs =
  let config = Core.Stage.default_config category in
  let executor = Core.Exec.of_jobs jobs in
  let ranges =
    Array.of_list
      (Core.Stage.shard_ranges ~shards
         ~total:(Core.Category.catalog_size category))
  in
  (* Prewarm at every jobs count, not just jobs>1: the memoized
     dcache activity tables would otherwise be generated inside the
     first (jobs=1) front and reused by later arms, inflating the
     apparent speedup with a cache artifact. *)
  Core.Category.prewarm ~reps:config.reps category;
  let t0 = Obs.Clock.now_ns () in
  let classified =
    Core.Exec.map ~executor (Array.length ranges) (fun i ->
        let ds =
          Core.Stage.collect_shard ~reps:config.reps category ranges.(i)
        in
        Core.Stage.classify_shard ~config ~category ds)
    |> Array.to_list
  in
  let t1 = Obs.Clock.now_ns () in
  let r = Core.Stage.run_merged ~category classified in
  let t2 = Obs.Clock.now_ns () in
  ( {
      category = Core.Category.name category;
      shards;
      jobs;
      front_ms = ms_between t0 t1;
      merge_ms = ms_between t1 t2;
      chosen = Array.length r.chosen_names;
    },
    r.chosen_names )

(* Self-validation: every jobs>1 run must choose exactly the events
   the jobs=1 run of the same shard layout chose. *)
let bench ~categories ~shards ~jobs_counts =
  List.concat_map
    (fun category ->
      let reference = ref [||] in
      List.map
        (fun jobs ->
          let sample, chosen = run_one ~category ~shards ~jobs in
          if !reference = [||] then reference := chosen
          else if chosen <> !reference then begin
            Printf.eprintf
              "par_bench: %s at --jobs %d chose different events than the \
               jobs=1 run\n"
              (Core.Category.name category) jobs;
            exit 1
          end;
          sample)
        jobs_counts)
    categories

(* ------------------------------------------------------------------ *)
(* Speedup policy                                                      *)
(* ------------------------------------------------------------------ *)

let sample_key s = Printf.sprintf "%s_j%d" s.category s.jobs

(* Front speedup of the highest-jobs sample over jobs=1, per
   category.  None when the category has no jobs>1 sample. *)
let speedups samples =
  let by_cat = Hashtbl.create 4 in
  List.iter
    (fun s ->
      let seq, best = try Hashtbl.find by_cat s.category with Not_found -> (None, None) in
      let seq = if s.jobs = 1 then Some s else seq in
      let best =
        match best with
        | Some b when b.jobs >= s.jobs -> Some b
        | _ when s.jobs > 1 -> Some s
        | b -> b
      in
      Hashtbl.replace by_cat s.category (seq, best))
    samples;
  Hashtbl.fold
    (fun cat slot acc ->
      match slot with
      | Some seq, Some par -> (cat, seq.front_ms /. par.front_ms) :: acc
      | _ -> acc)
    by_cat []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Manifest assembly                                                   *)
(* ------------------------------------------------------------------ *)

let manifest_of_samples ~smoke ~categories ~shards ~jobs_counts ~cores
    recorder samples =
  let config =
    [
      ("benchmark", "parallel-front");
      ("smoke", string_of_bool smoke);
      ( "categories",
        String.concat "," (List.map Core.Category.name categories) );
      ("shards", string_of_int shards);
      ( "jobs_counts",
        String.concat "," (List.map string_of_int jobs_counts) );
      ("cores", string_of_int cores);
    ]
  in
  let metrics =
    List.concat_map
      (fun s ->
        [
          ("front_ms_" ^ sample_key s, s.front_ms);
          ("merge_ms_" ^ sample_key s, s.merge_ms);
        ])
      samples
  in
  (* Chosen counts and the speedup verdict are correctness, not
     timing: exact-match counters. *)
  let extra_counters =
    List.map (fun s -> ("chosen_" ^ sample_key s, float_of_int s.chosen)) samples
    @ List.map
        (fun (cat, sp) ->
          let ok = cores < 2 || sp >= speedup_target in
          (Printf.sprintf "speedup_ok_%s" cat, if ok then 1.0 else 0.0))
        (speedups samples)
  in
  Bench_report.finalize ~source:source_label ~label:"par" ~config ~metrics
    ~extra_counters recorder

let check_manifest path =
  match Bench_report.load_manifest path with
  | Error msg -> failwith msg
  | Ok m ->
    if m.Obs.Manifest.source <> source_label then
      failwith
        (Printf.sprintf "%s: manifest source is %S, expected %S" path
           m.Obs.Manifest.source source_label);
    if m.Obs.Manifest.metrics = [] then
      failwith (path ^ ": manifest records no metrics");
    m

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let smoke = ref false in
  let out = ref "BENCH_par.json" in
  let check = ref "" in
  let trajectory = ref "" in
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " branch category only");
      ("--out", Arg.Set_string out, "FILE output path (default BENCH_par.json)");
      ( "--check",
        Arg.Set_string check,
        "FILE strictly decode FILE as a bench manifest and exit" );
      ( "--trajectory",
        Arg.Set_string trajectory,
        "FILE append a JSONL summary line to FILE" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "par_bench [--smoke] [--out FILE] [--check FILE] [--trajectory FILE]";
  if !check <> "" then begin
    match check_manifest !check with
    | m ->
      Printf.printf "par_bench --check: %s ok (%d metrics, digest %s)\n" !check
        (List.length m.Obs.Manifest.metrics)
        m.Obs.Manifest.config_digest
    | exception Failure msg ->
      Printf.eprintf "par_bench --check: %s\n" msg;
      exit 1
  end
  else begin
    let recorder = Obs.Recorder.create () in
    Obs.install (Obs.Recorder.sink recorder);
    let cores = Domain.recommended_domain_count () in
    let categories =
      if !smoke then [ Core.Category.Branch ]
      else [ Core.Category.Branch; Core.Category.Dcache ]
    in
    let shards = 2 and jobs_counts = [ 1; 2 ] in
    let samples = bench ~categories ~shards ~jobs_counts in
    List.iter
      (fun s ->
        Printf.printf
          "%-8s shards=%d jobs=%d  front %7.1f ms  merge+downstream %6.1f ms\n"
          s.category s.shards s.jobs s.front_ms s.merge_ms)
      samples;
    let sps = speedups samples in
    List.iter
      (fun (cat, sp) ->
        Printf.printf "%-8s front speedup %.2fx (cores=%d, target %.1fx)\n" cat
          sp cores speedup_target)
      sps;
    let m =
      manifest_of_samples ~smoke:!smoke ~categories ~shards ~jobs_counts ~cores
        recorder samples
    in
    Bench_report.write_manifest !out m;
    (try ignore (check_manifest !out)
     with Failure msg ->
       prerr_endline ("par_bench: wrote a malformed manifest: " ^ msg);
       exit 1);
    if !trajectory <> "" then Bench_report.append_trajectory !trajectory m;
    if
      cores >= 2
      && List.exists (fun (_, sp) -> sp < speedup_target) sps
    then begin
      Printf.eprintf
        "par_bench: front speedup below %.1fx target with %d cores available\n"
        speedup_target cores;
      exit 1
    end;
    Printf.eprintf "results written to %s\n" !out
  end
