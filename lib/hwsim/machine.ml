(* [of_string (sprintf "%s|%s|rep=%d|row=%d" ...)], folded into the
   hash piece by piece instead of building the string. *)
let reading_rng ~seed ~rep ~row (event : Event.t) =
  let open Numkit.Rng in
  create
    (fnv_offset_basis |> fnv_string seed |> fnv_string "|"
    |> fnv_string event.Event.name
    |> fnv_string "|rep=" |> fnv_int rep |> fnv_string "|row=" |> fnv_int row)

let measure ~seed ~rep ~row event activity =
  Obs.incr "hwsim.readings";
  let ideal = Event.ideal_value event activity in
  let rng = reading_rng ~seed ~rep ~row event in
  Noise_model.apply event.Event.noise rng ideal

let measure_vector ~seed ~rep event activities =
  if Obs.enabled () then begin
    Obs.incr "hwsim.event_sweeps";
    Obs.add "hwsim.kernel_runs" (float_of_int (Array.length activities))
  end;
  Array.mapi (fun row activity -> measure ~seed ~rep ~row event activity) activities

let measure_repetitions ~seed ~reps event activities =
  List.init reps (fun rep -> measure_vector ~seed ~rep event activities)
