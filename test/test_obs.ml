(* The observability layer: span nesting and monotonic timing,
   counter accumulation, Chrome-trace well-formedness, behavioral
   inertness (null sink ≡ no sink), and the regression pinning the
   live QRCP span attributes to Report.qrcp_trace. *)

let with_obs_cleared f =
  Obs.clear ();
  Fun.protect ~finally:Obs.clear f

(* A deterministic clock ticking 10 ns per reading. *)
let with_fake_clock f =
  let t = ref 0L in
  Obs.Clock.set_source (fun () ->
      t := Int64.add !t 10L;
      !t);
  Fun.protect
    ~finally:(fun () -> Obs.Clock.set_source Obs.Clock.default_source)
    f

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting_and_timing () =
  with_obs_cleared @@ fun () ->
  with_fake_clock @@ fun () ->
  let mem = Obs.Memory.create () in
  Obs.install (Obs.Memory.sink mem);
  let result =
    Obs.span "outer" (fun () ->
        Obs.attr_str "who" "outer";
        Obs.span "inner" (fun () -> Obs.attr_int "k" 7);
        Obs.span "inner2" (fun () -> ());
        42)
  in
  Alcotest.(check int) "span returns f's value" 42 result;
  (match Obs.Memory.events mem with
  | [
   Obs.Memory.Span_start o;
   Obs.Memory.Span_start i1;
   Obs.Memory.Span_end e1;
   Obs.Memory.Span_start i2;
   Obs.Memory.Span_end e2;
   Obs.Memory.Span_end eo;
  ] ->
    Alcotest.(check string) "outer name" "outer" o.name;
    Alcotest.(check int) "outer is root" 0 o.parent;
    Alcotest.(check int) "inner parent" o.id i1.parent;
    Alcotest.(check int) "inner2 parent" o.id i2.parent;
    Alcotest.(check int) "inner end matches start" i1.id e1.id;
    Alcotest.(check int) "inner2 end matches start" i2.id e2.id;
    Alcotest.(check int) "outer end matches start" o.id eo.id;
    (* Monotonic clock: timestamps strictly increase event to event,
       and every duration is positive. *)
    let ts =
      [ o.ts_ns; i1.ts_ns; e1.ts_ns; i2.ts_ns; e2.ts_ns; eo.ts_ns ]
    in
    List.iteri
      (fun i t ->
        if i > 0 then
          Alcotest.(check bool)
            (Printf.sprintf "ts %d after ts %d" i (i - 1))
            true
            (t > List.nth ts (i - 1)))
      ts;
    List.iter
      (fun (label, (e : int64)) ->
        Alcotest.(check bool) (label ^ " duration > 0") true (e > 0L))
      [ ("inner", e1.dur_ns); ("inner2", e2.dur_ns); ("outer", eo.dur_ns) ];
    Alcotest.(check bool) "outer spans its children" true
      (eo.dur_ns > Int64.add e1.dur_ns e2.dur_ns);
    (* Attributes arrive with the end event, in set order. *)
    Alcotest.(check bool) "inner attr" true
      (e1.attrs = [ ("k", Obs.Sink.Int 7) ]);
    Alcotest.(check bool) "outer attr" true
      (eo.attrs = [ ("who", Obs.Sink.Str "outer") ])
  | evs ->
    Alcotest.failf "unexpected event sequence (%d events)" (List.length evs))

let test_span_closed_on_exception () =
  with_obs_cleared @@ fun () ->
  let mem = Obs.Memory.create () in
  Obs.install (Obs.Memory.sink mem);
  (try Obs.span "boom" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "end event emitted" 1
    (List.length (Obs.Memory.span_ends ~name:"boom" mem))

let test_begin_end_handles () =
  with_obs_cleared @@ fun () ->
  let mem = Obs.Memory.create () in
  Obs.install (Obs.Memory.sink mem);
  let a = Obs.begin_span "a" in
  let b = Obs.begin_span "b" in
  (* Closing the outer handle closes the forgotten inner span too. *)
  ignore b;
  Obs.end_span a;
  Obs.end_span a (* unknown handle by now: ignored *);
  let ends = Obs.Memory.span_ends mem in
  Alcotest.(check int) "both spans closed once" 2 (List.length ends)

let test_disabled_is_passthrough () =
  Obs.clear ();
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  Alcotest.(check int) "begin_span yields null handle" 0 (Obs.begin_span "x");
  Alcotest.(check int) "span still runs f" 7 (Obs.span "x" (fun () -> 7));
  Obs.incr "c";
  Alcotest.(check (float 0.0)) "counters dead when disabled" 0.0 (Obs.counter "c")

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)
(* ------------------------------------------------------------------ *)

let test_counter_accumulation () =
  with_obs_cleared @@ fun () ->
  let mem = Obs.Memory.create () in
  Obs.install (Obs.Memory.sink mem);
  Obs.incr "a";
  Obs.incr "a";
  Obs.add "a" 2.5;
  Obs.incr "b";
  Obs.gauge "g" 3.0;
  Obs.gauge "g" 4.0;
  Alcotest.(check (float 1e-12)) "a accumulates" 4.5 (Obs.counter "a");
  Alcotest.(check (float 1e-12)) "b independent" 1.0 (Obs.counter "b");
  Alcotest.(check bool) "snapshot sorted" true
    (Obs.counters () = [ ("a", 4.5); ("b", 1.0) ]);
  (* Sinks see every step with running totals. *)
  let steps =
    List.filter_map
      (function
        | Obs.Memory.Counter { name = "a"; delta; total; _ } -> Some (delta, total)
        | _ -> None)
      (Obs.Memory.events mem)
  in
  Alcotest.(check bool) "deltas and totals" true
    (steps = [ (1.0, 1.0); (1.0, 2.0); (2.5, 4.5) ]);
  let gauges =
    List.filter_map
      (function
        | Obs.Memory.Gauge { name = "g"; value; _ } -> Some value
        | _ -> None)
      (Obs.Memory.events mem)
  in
  Alcotest.(check bool) "gauge last-write-wins stream" true (gauges = [ 3.0; 4.0 ]);
  Obs.reset_counters ();
  Alcotest.(check (float 0.0)) "reset zeroes" 0.0 (Obs.counter "a")

(* The text table [analyze --stats] prints: spans by total time
   descending, then counters and gauges by name; [reset] empties it. *)
let test_recorder_render () =
  with_obs_cleared @@ fun () ->
  let t = ref 0L in
  Obs.Clock.set_source (fun () ->
      t := Int64.add !t 1_000_000L;
      !t);
  Fun.protect ~finally:(fun () -> Obs.Clock.set_source Obs.Clock.default_source)
  @@ fun () ->
  let r = Obs.Recorder.create () in
  Obs.install (Obs.Recorder.sink r);
  Obs.span "outer" (fun () ->
      Obs.span "inner" ignore;
      Obs.span "inner" (fun () -> Obs.span "leaf" ignore));
  Obs.incr "b";
  Obs.add "a" 2.5;
  Obs.gauge "g" 3.0;
  Alcotest.(check string) "table"
    (String.concat "\n"
       [
         "span                          count   total ms    mean ms     min ms     max ms";
         "outer                             1      7.000      7.000      7.000      7.000";
         "inner                             2      4.000      2.000      1.000      3.000";
         "leaf                              1      1.000      1.000      1.000      1.000";
         "counters:";
         "  a                                             2.5";
         "  b                                               1";
         "gauges:";
         "  g                                               3";
         "";
       ])
    (Obs.Recorder.render r);
  Obs.Recorder.reset r;
  Alcotest.(check string) "reset empties" "" (Obs.Recorder.render r)

(* Readings and noise draws are counted once per sweep, not once per
   reading; the totals must stay what per-reading counting gave.  The
   values were read from a build that counted every reading.  Full-range
   [dataset_range] builds bypass the default-reps memo, so every build
   here measures afresh. *)
let hwsim_totals build =
  Obs.clear ();
  Obs.install Obs.Sink.null;
  ignore (build ());
  let totals =
    List.map Obs.counter
      [ "hwsim.readings"; "hwsim.noise_draws"; "hwsim.kernel_runs" ]
  in
  let mux = Obs.counter "multiplex.measurements" in
  Obs.clear ();
  (totals, mux)

let test_hwsim_totals_pinned () =
  with_obs_cleared @@ fun () ->
  let module C = Core.Category in
  List.iter
    (fun (category, expected) ->
      let totals, _ =
        hwsim_totals (fun () ->
            C.dataset_range ~lo:0 ~hi:(C.catalog_size category) category)
      in
      Alcotest.(check (list (float 0.0)))
        (C.name category ^ " readings, draws, kernel runs")
        expected totals)
    [
      (C.Cpu_flops, [ 94080.; 80160.; 94080. ]);
      (C.Gpu_flops, [ 280800.; 276975.; 280800. ]);
      (C.Branch, [ 21560.; 18370.; 21560. ]);
      (C.Dcache, [ 250880.; 213760.; 0. ]);
    ];
  (* Multiplex draws noise through [Noise_model.apply] without a
     [Machine.measure]: draws are counted, readings are not. *)
  let totals, mux =
    hwsim_totals (fun () ->
        Cat_bench.Multiplex.branch_dataset Cat_bench.Multiplex.default_config)
  in
  Alcotest.(check (list (float 0.0)))
    "multiplex readings, draws, kernel runs" [ 0.; 18370.; 0. ] totals;
  Alcotest.(check (float 0.0)) "multiplex measurements" 21560. mux;
  (* Metric validation sweeps each combination's events once per app. *)
  let r = Core.Pipeline.run C.Cpu_flops in
  let apps = Cat_bench.App_workloads.all () in
  let totals, _ =
    hwsim_totals (fun () -> Core.Validate.validate_cpu_flops_metrics r apps)
  in
  Alcotest.(check (list (float 0.0)))
    "validate readings, draws, kernel runs" [ 144.; 0.; 0. ] totals

(* ------------------------------------------------------------------ *)
(* Chrome trace JSON                                                   *)
(* ------------------------------------------------------------------ *)

(* Minimal JSON parser: enough to check the trace is standards-valid
   and to walk its structure.  Raises Failure on malformed input. *)
type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

let parse_json s =
  let pos = ref 0 in
  let n = String.length s in
  let fail msg = failwith (Printf.sprintf "json: %s at %d" msg !pos) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c = if peek () = c then advance () else fail (Printf.sprintf "expected %c" c) in
  let literal lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then begin pos := !pos + String.length lit; v end
    else fail ("bad literal " ^ lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char buf '"'; advance ()
        | '\\' -> Buffer.add_char buf '\\'; advance ()
        | '/' -> Buffer.add_char buf '/'; advance ()
        | 'n' -> Buffer.add_char buf '\n'; advance ()
        | 'r' -> Buffer.add_char buf '\r'; advance ()
        | 't' -> Buffer.add_char buf '\t'; advance ()
        | 'b' -> Buffer.add_char buf '\b'; advance ()
        | 'f' -> Buffer.add_char buf '\012'; advance ()
        | 'u' ->
          advance ();
          if !pos + 4 > n then fail "bad \\u escape";
          ignore (int_of_string ("0x" ^ String.sub s !pos 4));
          Buffer.add_char buf '?';
          pos := !pos + 4
        | _ -> fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> fail "raw control char in string"
      | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar s.[!pos] do advance () done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin advance (); Jobj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ((k, v) :: acc)
          | '}' -> advance (); Jobj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin advance (); Jarr [] end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); elements (v :: acc)
          | ']' -> advance (); Jarr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
      end
    | '"' -> Jstr (parse_string ())
    | 't' -> literal "true" (Jbool true)
    | 'f' -> literal "false" (Jbool false)
    | 'n' -> literal "null" Jnull
    | _ -> Jnum (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field obj name =
  match obj with
  | Jobj kvs -> List.assoc_opt name kvs
  | _ -> None

let str_field obj name =
  match field obj name with Some (Jstr s) -> s | _ -> Alcotest.fail ("missing " ^ name)

let test_chrome_trace_well_formed () =
  with_obs_cleared @@ fun () ->
  let chrome = Obs.Chrome_trace.create () in
  Obs.install (Obs.Chrome_trace.sink chrome);
  (* Names with every character class the escaper must handle. *)
  Obs.span "quo\"te\\back\nslash\ttab" (fun () ->
      Obs.attr_str "msg" "a\"b\\c\nd";
      Obs.attr_float "nan" Float.nan;
      Obs.incr "count\"er");
  let r = Core.Pipeline.run Core.Category.Branch in
  ignore r;
  Obs.clear ();
  let doc = parse_json (Obs.Chrome_trace.contents chrome) in
  let events = match doc with Jarr l -> l | _ -> Alcotest.fail "not an array" in
  Alcotest.(check bool) "nonempty" true (events <> []);
  List.iter
    (fun e ->
      ignore (str_field e "name");
      let ph = str_field e "ph" in
      Alcotest.(check bool) "known phase" true (List.mem ph [ "B"; "E"; "C" ]);
      (match field e "ts" with
      | Some (Jnum ts) -> Alcotest.(check bool) "ts >= 0" true (ts >= 0.0)
      | _ -> Alcotest.fail "missing ts");
      match (field e "pid", field e "tid") with
      | Some (Jnum _), Some (Jnum _) -> ()
      | _ -> Alcotest.fail "missing pid/tid")
    events;
  let count ph =
    List.length (List.filter (fun e -> str_field e "ph" = ph) events)
  in
  Alcotest.(check int) "balanced B/E" (count "B") (count "E");
  (* The five pipeline stages all appear as spans... *)
  let b_names =
    List.filter_map
      (fun e -> if str_field e "ph" = "B" then Some (str_field e "name") else None)
      events
  in
  List.iter
    (fun stage ->
      Alcotest.(check bool) ("stage span " ^ stage) true (List.mem stage b_names))
    [ "pipeline"; "dataset-collect"; "noise-filter"; "projection"; "qrcp";
      "metric-solve" ];
  (* ...and at least one pivot span carries score and runner_up. *)
  let pivot_args =
    List.filter_map
      (fun e ->
        if str_field e "ph" = "E" && str_field e "name" = "qrcp-pivot" then
          field e "args"
        else None)
      events
  in
  Alcotest.(check bool) "pivot spans present" true (pivot_args <> []);
  List.iter
    (fun args ->
      match (field args "score", field args "runner_up") with
      | Some (Jnum _), Some _ -> ()
      | _ -> Alcotest.fail "pivot span missing score/runner_up")
    pivot_args

(* ------------------------------------------------------------------ *)
(* Inertness: pipeline with the null sink ≡ pipeline without obs       *)
(* ------------------------------------------------------------------ *)

let same_mat a b =
  Linalg.Mat.rows a = Linalg.Mat.rows b
  && Linalg.Mat.cols a = Linalg.Mat.cols b
  &&
  let ok = ref true in
  for i = 0 to Linalg.Mat.rows a - 1 do
    for j = 0 to Linalg.Mat.cols a - 1 do
      if not (Float.equal (Linalg.Mat.get a i j) (Linalg.Mat.get b i j)) then
        ok := false
    done
  done;
  !ok

let test_null_sink_inert () =
  Obs.clear ();
  let bare = Core.Pipeline.run Core.Category.Branch in
  Obs.install Obs.Sink.null;
  let observed = Core.Pipeline.run Core.Category.Branch in
  Obs.clear ();
  Alcotest.(check (array string)) "same chosen events" bare.chosen_names
    observed.chosen_names;
  Alcotest.(check bool) "bit-identical X" true (same_mat bare.x observed.x);
  Alcotest.(check bool) "bit-identical Xhat" true (same_mat bare.xhat observed.xhat);
  List.iter2
    (fun (a : Core.Metric_solver.metric_def) (b : Core.Metric_solver.metric_def) ->
      Alcotest.(check string) "metric" a.metric b.metric;
      Alcotest.(check (float 0.0)) "bit-identical error" a.error b.error)
    bare.metrics observed.metrics;
  List.iter2
    (fun (a : Core.Noise_filter.classified) (b : Core.Noise_filter.classified) ->
      Alcotest.(check (float 0.0)) "bit-identical variability" a.variability
        b.variability)
    bare.classified observed.classified

(* ------------------------------------------------------------------ *)
(* Regression: live QRCP spans vs Report.qrcp_trace                    *)
(* ------------------------------------------------------------------ *)

let pivot_attr attrs name =
  match List.assoc_opt name attrs with
  | Some a -> a
  | None -> Alcotest.fail ("pivot span missing attr " ^ name)

(* Extract "pick NAME" from a qrcp_trace line like
   "step  1: pick X (score 3, ...)". *)
let report_picks text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if String.length line >= 4 && String.sub line 0 4 = "step" then begin
           let after =
             let i = String.index line ':' in
             String.sub line (i + 2) (String.length line - i - 2)
           in
           (* after = "pick NAME (score ..." *)
           let after = String.sub after 5 (String.length after - 5) in
           let stop = String.index after '(' in
           Some (String.trim (String.sub after 0 stop))
         end
         else None)

let check_trace_matches_report category () =
  Obs.clear ();
  let mem = Obs.Memory.create () in
  Obs.install (Obs.Memory.sink mem);
  let r = Core.Pipeline.run category in
  Obs.clear ();
  let spans =
    List.filter_map
      (function
        | Obs.Memory.Span_end { name = "qrcp-pivot"; attrs; _ } -> Some attrs
        | _ -> None)
      (Obs.Memory.events mem)
  in
  let _, steps = Core.Special_qrcp.factor_traced ~alpha:r.config.alpha r.x in
  Alcotest.(check int) "one span per pivot step" (List.length steps)
    (List.length spans);
  List.iter2
    (fun attrs (s : Core.Special_qrcp.step) ->
      (match pivot_attr attrs "pick" with
      | Obs.Sink.Int p -> Alcotest.(check int) "pick" s.pick p
      | _ -> Alcotest.fail "pick attr not an int");
      (match pivot_attr attrs "score" with
      | Obs.Sink.Float f -> Alcotest.(check (float 0.0)) "score" s.score f
      | _ -> Alcotest.fail "score attr not a float");
      match (pivot_attr attrs "runner_up", s.runner_up) with
      | Obs.Sink.Int a, Some b -> Alcotest.(check int) "runner_up" b a
      | Obs.Sink.Str "none", None -> ()
      | _ -> Alcotest.fail "runner_up mismatch")
    spans steps;
  (* The rendered report names the same events in the same order. *)
  let picked_names =
    List.map
      (fun attrs ->
        match pivot_attr attrs "pick" with
        | Obs.Sink.Int p -> r.x_names.(p)
        | _ -> Alcotest.fail "pick attr not an int")
      spans
  in
  Alcotest.(check (list string)) "report pick order matches spans"
    picked_names
    (report_picks (Core.Report.qrcp_trace r))

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and timing" `Quick
            test_span_nesting_and_timing;
          Alcotest.test_case "closed on exception" `Quick
            test_span_closed_on_exception;
          Alcotest.test_case "begin/end handles" `Quick test_begin_end_handles;
          Alcotest.test_case "disabled passthrough" `Quick
            test_disabled_is_passthrough;
        ] );
      ( "counters",
        [
          Alcotest.test_case "accumulation" `Quick test_counter_accumulation;
          Alcotest.test_case "hwsim totals pinned" `Quick
            test_hwsim_totals_pinned;
          Alcotest.test_case "recorder table" `Quick test_recorder_render;
        ] );
      ( "chrome-trace",
        [
          Alcotest.test_case "well-formed JSON" `Quick
            test_chrome_trace_well_formed;
        ] );
      ( "inertness",
        [ Alcotest.test_case "null sink ≡ no sink" `Quick test_null_sink_inert ] );
      ( "trace-vs-report",
        [
          Alcotest.test_case "cpu-flops" `Quick
            (check_trace_matches_report Core.Category.Cpu_flops);
          Alcotest.test_case "branch" `Quick
            (check_trace_matches_report Core.Category.Branch);
          Alcotest.test_case "gpu-flops" `Quick
            (check_trace_matches_report Core.Category.Gpu_flops);
          Alcotest.test_case "dcache" `Slow
            (check_trace_matches_report Core.Category.Dcache);
        ] );
    ]
