(* Folded-stack accumulation for flamegraph export.

   Open frames are keyed by span id; a span's stack key is its
   parent's key extended by its own name, so spans that domains emit
   concurrently each extend their own parent.  When a span ends, its
   self time (duration minus the time spent in child spans) is added
   to the bucket of its stack key, and its full duration is charged
   to the parent frame's child accumulator.  Self-time bucketing is
   what makes the folded semantics correct: flamegraph.pl widths sum
   every line a frame prefixes, so inclusive counts would double-count
   children. *)

type frame = {
  key : string;  (* ';'-joined sanitized stack, root first *)
  parent : int;
  mutable child_ns : int64;  (* time spent in already-closed children *)
}

type t = {
  totals : (string, int64 ref) Hashtbl.t;  (* stack -> self ns *)
  frames : (int, frame) Hashtbl.t;  (* open spans by id *)
}

let create () = { totals = Hashtbl.create 64; frames = Hashtbl.create 16 }

(* Folded grammar: frames may not contain the separator characters. *)
let sanitize name =
  String.map (fun c -> if c = ';' || c = ' ' || c = '\n' then '_' else c) name

let add t key ns =
  if Int64.compare ns 0L > 0 then begin
    let cell =
      match Hashtbl.find_opt t.totals key with
      | Some c -> c
      | None ->
        let c = ref 0L in
        Hashtbl.add t.totals key c;
        c
    in
    cell := Int64.add !cell ns
  end

let sink t =
  {
    Sink.on_span_start =
      (fun ~id ~parent ~name ~ts_ns:_ ->
        let name = sanitize name in
        let key =
          match Hashtbl.find_opt t.frames parent with
          | Some p -> p.key ^ ";" ^ name
          | None -> name
        in
        Hashtbl.replace t.frames id { key; parent; child_ns = 0L });
    on_span_end =
      (fun ~id ~name:_ ~ts_ns:_ ~dur_ns ~attrs:_ ->
        match Hashtbl.find_opt t.frames id with
        | None -> ()  (* unknown span: ignore, like the other sinks *)
        | Some frame ->
          Hashtbl.remove t.frames id;
          add t frame.key (Int64.max 0L (Int64.sub dur_ns frame.child_ns));
          (match Hashtbl.find_opt t.frames frame.parent with
          | Some p -> p.child_ns <- Int64.add p.child_ns dur_ns
          | None -> ()));
    on_counter = (fun ~name:_ ~delta:_ ~total:_ ~ts_ns:_ -> ());
    on_gauge = (fun ~name:_ ~value:_ ~ts_ns:_ -> ());
  }

let stacks t =
  Hashtbl.fold (fun k c acc -> (k, !c) :: acc) t.totals []
  |> List.sort compare

let contents t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (k, ns) -> Printf.bprintf buf "%s %Ld\n" k ns)
    (stacks t);
  Buffer.contents buf

let write_file t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (contents t))
