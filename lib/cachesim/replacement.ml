type kind = Lru | Fifo

type t = {
  kind : kind;
  ways : int;
  (* stamp.(set * ways + way): recency counter for LRU, fill order for
     FIFO. *)
  stamp : int array;
  clock : int array; (* per-set logical clock *)
}

let create kind ~sets ~ways =
  if sets <= 0 || ways <= 0 then invalid_arg "Replacement.create: bad geometry";
  { kind; ways; stamp = Array.make (sets * ways) 0; clock = Array.make sets 0 }

let reset t =
  Array.fill t.stamp 0 (Array.length t.stamp) 0;
  Array.fill t.clock 0 (Array.length t.clock) 0

let touch t ~set ~way =
  let now = t.clock.(set) + 1 in
  t.clock.(set) <- now;
  t.stamp.((set * t.ways) + way) <- now

let on_hit t ~set ~way =
  match t.kind with Lru -> touch t ~set ~way | Fifo -> ()

let on_fill t ~set ~way = touch t ~set ~way

let victim t ~set =
  let base = set * t.ways in
  let best = ref 0 in
  for w = 1 to t.ways - 1 do
    if t.stamp.(base + w) < t.stamp.(base + !best) then best := w
  done;
  !best
