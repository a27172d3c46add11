(* [of_string (sprintf "%s|%s|rep=%d|row=%d" ...)], folded into the
   hash piece by piece instead of building the string. *)
let reading_rng ~seed ~rep ~row (event : Event.t) =
  let open Numkit.Rng in
  create
    (fnv_offset_basis |> fnv_string seed |> fnv_string "|"
    |> fnv_string event.Event.name
    |> fnv_string "|rep=" |> fnv_int rep |> fnv_string "|row=" |> fnv_int row)

let measure ~seed ~rep ~row event activity =
  let ideal = Event.ideal_value event activity in
  let rng = reading_rng ~seed ~rep ~row event in
  Noise_model.apply event.Event.noise rng ideal

(* Zero counts add nothing, so a counter no reading touched stays
   absent from summaries and manifests. *)
let count_readings ~readings ~draws =
  if Obs.enabled () then begin
    if readings > 0 then Obs.add "hwsim.readings" (float_of_int readings);
    if draws > 0 then Obs.add "hwsim.noise_draws" (float_of_int draws)
  end

(* [reps] sweeps of one event over [rows] kernel executions, counted
   in one go: a worker then takes the collector lock a few times per
   event, not once per repetition. *)
let count_sweeps event ~reps ~rows =
  let n = reps * rows in
  if Obs.enabled () then begin
    Obs.add "hwsim.event_sweeps" (float_of_int reps);
    Obs.add "hwsim.kernel_runs" (float_of_int n)
  end;
  count_readings ~readings:n ~draws:(n * Noise_model.draws event.Event.noise)

let sweep ~seed ~rep event activities =
  Array.mapi (fun row activity -> measure ~seed ~rep ~row event activity) activities

let measure_vector ~seed ~rep event activities =
  count_sweeps event ~reps:1 ~rows:(Array.length activities);
  sweep ~seed ~rep event activities

let measure_repetitions ~seed ~reps event activities =
  count_sweeps event ~reps ~rows:(Array.length activities);
  List.init reps (fun rep -> sweep ~seed ~rep event activities)
