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

(* ------------------------------------------------------------------ *)
(* Differential: the one-scan parser against the split-based original  *)
(* ------------------------------------------------------------------ *)

(* The split-on-lines-and-fields parser the one-scan reader replaced,
   kept as the oracle: both must return equal datasets (floats
   compared bitwise) or fail with the same message. *)
module Oracle = struct
  type imported = {
    mutable vectors : float array list;
    mutable count : int;
    mutable last_line : int;
  }

  let of_reps_csv ~name csv =
    let fail line msg = failwith (Printf.sprintf "Dataset.of_reps_csv: line %d: %s" line msg) in
    let rec find_header lineno = function
      | [] -> failwith "Dataset.of_reps_csv: empty input"
      | l :: rest when String.trim l = "" -> find_header (lineno + 1) rest
      | l :: rest -> (lineno, String.trim l, rest)
    in
    let header_line, header, data = find_header 1 (String.split_on_char '\n' csv) in
    match String.split_on_char ',' header with
    | "event" :: "rep" :: labels when labels <> [] ->
      let row_labels = Array.of_list labels in
      let n = Array.length row_labels in
      let order = ref [] in
      let table : (string, imported) Hashtbl.t = Hashtbl.create 64 in
      List.iteri
        (fun i line ->
          let lineno = header_line + 1 + i and line = String.trim line in
          if line <> "" then
            match String.split_on_char ',' line with
            | event :: rep :: values ->
              if List.length values <> n then
                fail lineno
                  (Printf.sprintf "expected %d values, got %d" n
                     (List.length values));
              let v =
                Array.of_list
                  (List.map
                     (fun s ->
                       match float_of_string_opt (String.trim s) with
                       | Some f -> f
                       | None -> fail lineno ("bad number " ^ s))
                     values)
              in
              let e =
                match Hashtbl.find_opt table event with
                | Some e -> e
                | None ->
                  let e = { vectors = []; count = 0; last_line = lineno } in
                  order := event :: !order;
                  Hashtbl.add table event e;
                  e
              in
              let rep = String.trim rep in
              if not (String.for_all (fun c -> '0' <= c && c <= '9') rep
                      && int_of_string_opt rep = Some e.count)
              then
                fail lineno
                  (Printf.sprintf "%s: repetition %S, expected %d" event rep e.count);
              e.vectors <- v :: e.vectors;
              e.count <- e.count + 1;
              e.last_line <- lineno
            | _ -> fail lineno "expected event,rep,values...")
        data;
      let order = List.rev !order in
      let reps =
        match order with [] -> 0 | first :: _ -> (Hashtbl.find table first).count
      in
      let measurements =
        List.map
          (fun event_name ->
            let e = Hashtbl.find table event_name in
            if e.count <> reps then
              fail e.last_line
                (Printf.sprintf "%s has %d repetitions, %s has %d" event_name
                   e.count (List.hd order) reps);
            {
              Cat_bench.Dataset.event = Hwsim.Event.make ~name:event_name ~desc:"imported" [];
              reps = List.rev e.vectors;
            })
          order
      in
      { Cat_bench.Dataset.name; row_labels; reps; measurements }
    | _ -> fail header_line "expected header event,rep,<row labels>"
end

(* A dataset as text, every float as its bits. *)
let render (d : Cat_bench.Dataset.t) =
  let b = Buffer.create 256 in
  Printf.bprintf b "%S reps=%d labels=[%s]\n" d.name d.reps
    (String.concat "|" (Array.to_list (Array.map String.escaped d.row_labels)));
  List.iter
    (fun (m : Cat_bench.Dataset.measurement) ->
      Printf.bprintf b "%S %S:" m.event.Hwsim.Event.name m.event.Hwsim.Event.description;
      List.iter
        (fun v ->
          Buffer.add_string b " [";
          Array.iter (fun x -> Printf.bprintf b " %Lx" (Int64.bits_of_float x)) v;
          Buffer.add_string b " ]")
        m.reps;
      Buffer.add_char b '\n')
    d.measurements;
  Buffer.contents b

let parse_outcome parse csv =
  match parse ~name:"x" csv with
  | d -> "ok " ^ render d
  | exception Failure msg -> "Failure " ^ msg

let check_parsers_agree what csv =
  Alcotest.(check string) (what ^ ": " ^ String.escaped csv)
    (parse_outcome Oracle.of_reps_csv csv)
    (parse_outcome Cat_bench.Dataset.of_reps_csv csv)

(* Field texts for the number path: plain integers (with leading
   zeros, at the 15/16/17-digit edges, past 2^53), the syntaxes
   float_of_string also accepts, padding, and malformed fields. *)
let number_tokens =
  [| "0"; "7"; "42"; "007"; "000000000000000"; "123456789012345";
     "999999999999999"; "1234567890123456"; "9007199254740992";
     "9007199254740993"; "12345678901234567"; "00000000000000000001";
     "99999999999999999999"; "+5"; "-0"; "-12"; "1_000"; "0x1p3"; "0X1F";
     "1e3"; "1E-3"; "1.5"; ".5"; "5."; "nan"; "NaN"; "-nan"; "inf";
     "-inf"; "infinity"; " 42"; "42 "; "\t42\t"; " 1e3 "; "\r7"; "";
     " "; "abc"; "1 2"; "4,"; "0x"; "1e"; "--1"; "+"; "_1" |]

let gen_csv rng =
  let module R = Numkit.Rng in
  let pick a = a.(R.int rng (Array.length a)) in
  let n = 1 + R.int rng 4 in
  let labels = List.init n (fun i -> pick [| "r"; " r"; "r "; "row" |] ^ string_of_int i) in
  let header =
    match R.int rng 12 with
    | 0 -> "event,rep"
    | 1 -> "ev,rep," ^ String.concat "," labels
    | 2 -> " event,rep," ^ String.concat "," labels ^ " \t"
    | _ -> "event,rep," ^ String.concat "," labels
  in
  let eol () = if R.int rng 3 = 0 then "\r\n" else "\n" in
  let blank () = pick [| ""; " "; "\t"; " \r"; "\012" |] in
  let names = [| "E1"; "E2"; "E2 "; "A|b=c"; "\tE3"; "E1 " |] in
  let k = 1 + R.int rng 3 in
  let events = List.init (1 + R.int rng 3) (fun _ -> pick names) in
  let value () =
    if R.int rng 4 = 0 then pick number_tokens
    else string_of_int (R.int rng 1_000_000)
  in
  let line name rep =
    let count =
      match R.int rng 30 with 0 -> n + 1 | 1 -> n - 1 | 2 -> 0 | _ -> n
    in
    let rep =
      match R.int rng 40 with
      | 0 -> string_of_int (rep + 1)
      | 1 -> " " ^ string_of_int rep ^ " "
      | 2 -> "0" ^ string_of_int rep
      | 3 -> "+" ^ string_of_int rep
      | 4 -> ""
      | _ -> string_of_int rep
    in
    let fields = name :: rep :: List.init count (fun _ -> value ()) in
    let sep () = if R.int rng 20 = 0 then " , " else "," in
    let text = List.fold_left (fun acc f -> acc ^ sep () ^ f) (List.hd fields) (List.tl fields) in
    if R.int rng 25 = 0 then text ^ "," else text
  in
  let b = Buffer.create 256 in
  for _ = 1 to R.int rng 3 do
    Buffer.add_string b (blank () ^ eol ())
  done;
  Buffer.add_string b header;
  (* Reps in order per event, events interleaved or in blocks. *)
  let lines =
    if R.bool rng then List.concat_map (fun e -> List.init k (fun r -> line e r)) events
    else List.concat (List.init k (fun r -> List.map (fun e -> line e r) events))
  in
  let lines = if R.int rng 10 = 0 then List.filteri (fun i _ -> i <> 0) lines else lines in
  List.iter
    (fun l ->
      Buffer.add_string b (eol ());
      if R.int rng 6 = 0 then Buffer.add_string b (blank () ^ eol ());
      Buffer.add_string b l)
    lines;
  if R.bool rng then Buffer.add_string b (eol ());
  Buffer.contents b

let test_csv_differential () =
  let rng = Numkit.Rng.of_string "csv-differential" in
  for case = 1 to 4000 do
    check_parsers_agree (Printf.sprintf "case %d" case) (gen_csv rng)
  done

let test_csv_differential_fixed () =
  List.iter
    (fun csv -> check_parsers_agree "fixed" csv)
    [
      "";
      "  \n \n";
      "\r\n";
      "event,rep,a";
      "event,rep,a\n";
      "event,rep\nE,0\n";
      "event,rep,\nE,0,\n";
      "event, rep,a\nE,0,1\n";
      "x\nE,0,1\n";
      "event,rep,a\r\nE1,0,1\r\n\r\nE1,1,2\r\n";
      "event,rep,a,b\nE1 ,0, 1 ,2 \n";
      "event,rep,a\nE1\n";
      "event,rep,a\n,\n";
      "event,rep,a\nE1,0\n";
      "event,rep,a\nE1,0,\n";
      "event,rep,a\nE1,0,1,\n";
      "event,rep,a\nE1,0,1,2\n";
      "event,rep,a\nE1,0,xyz\n";
      "event,rep,a,b\nE1,0,xyz,1_0\n";
      "event,rep,a,b\nE1,0,1\n";
      "event,rep,a\nE1,0,1\nE1,1,1\nE1,0,1\n";
      "event,rep,a\nE1,0,1\nE1,2,1\n";
      "event,rep,a\nE1,x,1\n";
      "event,rep,a\nE1,-1,1\n";
      "event,rep,a\nE1,99999999999999999999999,1\n";
      "event,rep,a\nE1,0,1\nE1,1,1\nE2,0,1\nE3,0,1\nE3,1,1\n";
      "event,rep,a\nE1,0,1\nE2,0,2\nE1,1,3\nE2,1,4\n";
      "event,rep,a,b,c,d\nE,0,9007199254740993,12345678901234567,+5,-0\n";
      "event,rep,a,b,c,d,e\nE,000,1_000,0x1p3,1e3,nan,inf\n";
    ]

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
          Alcotest.test_case "parser = split oracle, generated" `Quick
            test_csv_differential;
          Alcotest.test_case "parser = split oracle, fixed" `Quick
            test_csv_differential_fixed;
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
