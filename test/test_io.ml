(* Tests for data interchange: CSV dataset round-trips and the JSON
   emitter behind the preset export. *)

(* ------------------------------------------------------------------ *)
(* CSV round trip                                                      *)
(* ------------------------------------------------------------------ *)

let small_dataset () =
  let ev name = Hwsim.Event.make ~name ~desc:"t" [] in
  {
    Cat_bench.Dataset.name = "toy";
    row_labels = [| "a"; "b"; "c" |];
    reps = 2;
    measurements =
      [
        { Cat_bench.Dataset.event = ev "E1";
          reps = [ [| 1.0; 2.5; 3.25 |]; [| 1.0; 2.5; 3.5 |] ] };
        { Cat_bench.Dataset.event = ev "E2";
          reps = [ [| 0.0; 0.0; 1e17 |]; [| 0.0; 1.0; 1e17 |] ] };
      ];
  }

let test_reps_csv_roundtrip () =
  let d = small_dataset () in
  let csv = Cat_bench.Dataset.reps_to_csv d in
  let d' = Cat_bench.Dataset.of_reps_csv ~name:"toy" csv in
  Alcotest.(check int) "reps" d.reps d'.reps;
  Alcotest.(check (array string)) "labels" d.row_labels d'.row_labels;
  List.iter2
    (fun (m : Cat_bench.Dataset.measurement) (m' : Cat_bench.Dataset.measurement) ->
      Alcotest.(check string) "event name" m.event.Hwsim.Event.name
        m'.event.Hwsim.Event.name;
      List.iter2
        (fun v v' -> Alcotest.(check (array (float 0.0))) "values" v v')
        m.reps m'.reps)
    d.measurements d'.measurements

let test_real_dataset_roundtrip_preserves_analysis () =
  (* Export the branch dataset, re-import it, run the pipeline on
     the import: identical chosen events and errors.  This is the
     real-data path: measurements from an actual machine enter the
     analysis as CSV. *)
  let original = Cat_bench.Dataset.branch () in
  let imported =
    Cat_bench.Dataset.of_reps_csv ~name:"branch"
      (Cat_bench.Dataset.reps_to_csv original)
  in
  let config = Core.Pipeline.default_config Core.Category.Branch in
  let run dataset =
    Core.Pipeline.run_custom ~config ~category:Core.Category.Branch ~dataset
      ~basis:(Core.Category.basis Core.Category.Branch)
      ~signatures:(Core.Category.signatures Core.Category.Branch) ()
  in
  let a = run original and b = run imported in
  Alcotest.(check (list string)) "same chosen set" (Core.Pipeline.chosen_set a)
    (Core.Pipeline.chosen_set b);
  List.iter2
    (fun (x : Core.Metric_solver.metric_def) (y : Core.Metric_solver.metric_def) ->
      Alcotest.(check (float 1e-12)) ("error " ^ x.metric) x.error y.error)
    a.Core.Pipeline.metrics b.Core.Pipeline.metrics

let test_csv_errors () =
  Alcotest.check_raises "empty" (Failure "Dataset.of_reps_csv: empty input")
    (fun () -> ignore (Cat_bench.Dataset.of_reps_csv ~name:"x" "  \n \n"));
  (try
     ignore (Cat_bench.Dataset.of_reps_csv ~name:"x" "event,rep,a\nE1,0,1,2\n");
     Alcotest.fail "expected failure on wrong arity"
   with Failure msg ->
     Alcotest.(check bool) "mentions line" true
       (String.length msg > 0 && String.contains msg '2'));
  (try
     ignore (Cat_bench.Dataset.of_reps_csv ~name:"x" "event,rep,a\nE1,0,xyz\n");
     Alcotest.fail "expected failure on bad number"
   with Failure _ -> ());
  (* The rep column is validated: each event's reps read 0, 1, ...
     in order, with the same count for every event. *)
  let rejects ~line what csv =
    match Cat_bench.Dataset.of_reps_csv ~name:"x" csv with
    | _ -> Alcotest.fail ("expected failure on " ^ what)
    | exception Failure msg ->
      let prefix = Printf.sprintf "Dataset.of_reps_csv: line %d:" line in
      Alcotest.(check string) (what ^ ": line") prefix
        (String.sub msg 0 (min (String.length msg) (String.length prefix)))
  in
  rejects ~line:4 "duplicated rep" "event,rep,a\nE1,0,1\nE1,1,1\nE1,0,1\n";
  rejects ~line:3 "skipped rep" "event,rep,a\nE1,0,1\nE1,2,1\n";
  rejects ~line:2 "non-integer rep" "event,rep,a\nE1,x,1\n";
  rejects ~line:2 "negative rep" "event,rep,a\nE1,-1,1\n";
  rejects ~line:4 "ragged rep counts"
    "event,rep,a\nE1,0,1\nE1,1,1\nE2,0,1\nE3,0,1\nE3,1,1\n";
  (* Interleaved events are fine as long as each one's reps are in
     order. *)
  let d =
    Cat_bench.Dataset.of_reps_csv ~name:"x"
      "event,rep,a\nE1,0,1\nE2,0,2\nE1,1,3\nE2,1,4\n"
  in
  Alcotest.(check int) "interleaved: reps" 2 d.reps;
  Alcotest.(check (list (list (float 0.0)))) "interleaved: E2 vectors"
    [ [ 2. ]; [ 4. ] ]
    (List.map Array.to_list (Cat_bench.Dataset.find d "E2").reps)

let test_mean_csv_shape () =
  let d = small_dataset () in
  let lines = String.split_on_char '\n' (String.trim (Cat_bench.Dataset.to_csv d)) in
  Alcotest.(check int) "header + 2 events" 3 (List.length lines);
  Alcotest.(check string) "header" "event,a,b,c" (List.hd lines)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_scalars () =
  Alcotest.(check string) "null" "null" (Jsonio.to_string Jsonio.Null);
  Alcotest.(check string) "true" "true" (Jsonio.to_string (Jsonio.Bool true));
  Alcotest.(check string) "int-like" "42" (Jsonio.to_string (Jsonio.Num 42.0));
  Alcotest.(check string) "string" "\"hi\"" (Jsonio.to_string (Jsonio.Str "hi"));
  Alcotest.(check string) "nan -> null" "null" (Jsonio.to_string (Jsonio.Num Float.nan))

let test_json_escaping () =
  Alcotest.(check string) "quotes and backslash" "\"a\\\"b\\\\c\""
    (Jsonio.escape_string "a\"b\\c");
  Alcotest.(check string) "newline" "\"a\\nb\"" (Jsonio.escape_string "a\nb");
  Alcotest.(check string) "control" "\"\\u0001\"" (Jsonio.escape_string "\001")

let test_json_structures () =
  let j =
    Jsonio.Obj
      [ ("xs", Jsonio.List [ Jsonio.Num 1.0; Jsonio.Num 2.0 ]);
        ("empty", Jsonio.List []) ]
  in
  let s = Jsonio.to_string ~indent:0 j in
  Alcotest.(check bool) "contains fields" true
    (String.length s > 0
    && String.index_opt s '{' <> None
    && String.index_opt s '[' <> None)

let test_json_float_precision () =
  let s = Jsonio.to_string (Jsonio.Num 0.1) in
  Alcotest.(check (float 1e-18)) "round trip" 0.1 (float_of_string s)

(* ------------------------------------------------------------------ *)
(* Presets                                                             *)
(* ------------------------------------------------------------------ *)

let test_preset_names_cover_categories () =
  List.iter
    (fun (category, metric, expected) ->
      Alcotest.(check (option string)) metric (Some expected)
        (Core.Preset.papi_name_of_metric category metric))
    [ (Core.Category.Cpu_flops, "DP Ops.", "PAPI_DP_OPS");
      (Core.Category.Branch, "Mispredicted Branches.", "PAPI_BR_MSP");
      (Core.Category.Dcache, "L2 Misses.", "PAPI_L2_DCM") ];
  Alcotest.(check (option string)) "unknown metric" None
    (Core.Preset.papi_name_of_metric Core.Category.Branch "No Such.")

let test_preset_derivation () =
  let presets = Core.Preset.derive (Core.Pipeline.run Core.Category.Branch) in
  Alcotest.(check int) "6 branch presets" 6 (List.length presets);
  List.iter
    (fun (p : Core.Preset.t) ->
      Alcotest.(check bool) (p.papi_name ^ " available") true p.available)
    presets

let test_preset_marks_unavailable () =
  let presets = Core.Preset.derive (Core.Pipeline.run Core.Category.Cpu_flops) in
  let fma =
    List.find (fun (p : Core.Preset.t) -> p.papi_name = "PAPI_FMA_DP_INS") presets
  in
  Alcotest.(check bool) "FMA preset unavailable" false fma.available;
  let dp = List.find (fun (p : Core.Preset.t) -> p.papi_name = "PAPI_DP_OPS") presets in
  Alcotest.(check bool) "DP_OPS available" true dp.available

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_preset_text_and_json_render () =
  let presets = Core.Preset.derive (Core.Pipeline.run Core.Category.Branch) in
  let text = Core.Preset.to_text presets in
  Alcotest.(check bool) "text mentions PAPI_BR_MSP" true
    (contains ~needle:"PAPI_BR_MSP" text);
  let json = Core.Preset.to_json presets in
  Alcotest.(check bool) "json non-empty list" true
    (String.length json > 2 && json.[0] = '[');
  Alcotest.(check bool) "json mentions the event" true
    (contains ~needle:"BR_MISP_RETIRED" json)

let () =
  Alcotest.run "io"
    [
      ( "csv",
        [
          Alcotest.test_case "roundtrip" `Quick test_reps_csv_roundtrip;
          Alcotest.test_case "real data roundtrip" `Quick test_real_dataset_roundtrip_preserves_analysis;
          Alcotest.test_case "errors" `Quick test_csv_errors;
          Alcotest.test_case "mean csv shape" `Quick test_mean_csv_shape;
        ] );
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "structures" `Quick test_json_structures;
          Alcotest.test_case "float precision" `Quick test_json_float_precision;
        ] );
      ( "presets",
        [
          Alcotest.test_case "name mapping" `Quick test_preset_names_cover_categories;
          Alcotest.test_case "derivation" `Quick test_preset_derivation;
          Alcotest.test_case "unavailable marked" `Quick test_preset_marks_unavailable;
          Alcotest.test_case "rendering" `Quick test_preset_text_and_json_render;
        ] );
    ]
