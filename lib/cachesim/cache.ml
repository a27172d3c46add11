type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  policy : Replacement.kind;
}

type t = {
  cfg : config;
  ways : int;
  nsets : int;
  line_shift : int;
  (* tags.(set * ways + way) = line tag, or -1 when invalid. *)
  tags : int array;
  (* dirty.[set * ways + way] = '\001' when the line is dirty. *)
  dirty : Bytes.t;
  repl : Replacement.t;
  mutable demand_hits : int;
  mutable demand_misses : int;
  mutable write_hits : int;
  mutable write_misses : int;
  mutable writebacks : int;
  mutable evictions : int;
}

let is_pow2 x = x > 0 && x land (x - 1) = 0

let config_valid c =
  c.size_bytes > 0 && c.ways > 0 && is_pow2 c.line_bytes
  && c.size_bytes mod (c.ways * c.line_bytes) = 0
  && is_pow2 (c.size_bytes / (c.ways * c.line_bytes))

let log2 x =
  let rec go acc x = if x <= 1 then acc else go (acc + 1) (x lsr 1) in
  go 0 x

let create cfg =
  if not (config_valid cfg) then invalid_arg "Cache.create: invalid geometry";
  let nsets = cfg.size_bytes / (cfg.ways * cfg.line_bytes) in
  {
    cfg;
    ways = cfg.ways;
    nsets;
    line_shift = log2 cfg.line_bytes;
    tags = Array.make (nsets * cfg.ways) (-1);
    dirty = Bytes.make (nsets * cfg.ways) '\000';
    repl = Replacement.create cfg.policy ~sets:nsets ~ways:cfg.ways;
    demand_hits = 0;
    demand_misses = 0;
    write_hits = 0;
    write_misses = 0;
    writebacks = 0;
    evictions = 0;
  }

let sets t = t.nsets
let ways t = t.ways
let line_bytes t = t.cfg.line_bytes
let size_bytes t = t.cfg.size_bytes

type outcome = Hit | Miss

let line_of t addr = addr lsr t.line_shift

(* [config_valid] forces a power-of-two set count. *)
let set_of t line = line land (t.nsets - 1)

(* First way in [i, stop) of [tags] holding [key], or -1.  Top-level
   and annotated so the comparison is a plain integer compare and no
   closure is built per lookup. *)
let rec scan (tags : int array) (key : int) (i : int) (stop : int) : int =
  if i >= stop then -1
  else if tags.(i) = key then i
  else scan tags key (i + 1) stop

let find_way t set line =
  let base = set * t.ways in
  let i = scan t.tags line base (base + t.ways) in
  if i < 0 then -1 else i - base

(* The policy's victim is the first invalid way while the set has one
   (see [Replacement.victim]), so a fill needs no separate scan for a
   free way. *)
let fill ~dirty t set line =
  let way = Replacement.victim t.repl ~set in
  let slot = (set * t.ways) + way in
  if t.tags.(slot) >= 0 then begin
    t.evictions <- t.evictions + 1;
    if Bytes.get t.dirty slot <> '\000' then t.writebacks <- t.writebacks + 1
  end;
  t.tags.(slot) <- line;
  Bytes.set t.dirty slot (if dirty then '\001' else '\000');
  Replacement.on_fill t.repl ~set ~way

let access t addr =
  let line = line_of t addr in
  let set = set_of t line in
  let way = find_way t set line in
  if way >= 0 then begin
    t.demand_hits <- t.demand_hits + 1;
    Replacement.on_hit t.repl ~set ~way;
    Hit
  end
  else begin
    t.demand_misses <- t.demand_misses + 1;
    fill ~dirty:false t set line;
    Miss
  end

let write t addr =
  let line = line_of t addr in
  let set = set_of t line in
  let way = find_way t set line in
  if way >= 0 then begin
    t.write_hits <- t.write_hits + 1;
    Bytes.set t.dirty ((set * t.ways) + way) '\001';
    Replacement.on_hit t.repl ~set ~way;
    Hit
  end
  else begin
    t.write_misses <- t.write_misses + 1;
    fill ~dirty:true t set line;
    Miss
  end

let probe t addr =
  let line = line_of t addr in
  find_way t (set_of t line) line >= 0

let fill_prefetch t addr =
  let line = line_of t addr in
  let set = set_of t line in
  let way = find_way t set line in
  if way >= 0 then Replacement.on_hit t.repl ~set ~way
  else fill ~dirty:false t set line

let invalidate_all t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  Replacement.reset t.repl

let demand_hits t = t.demand_hits
let demand_misses t = t.demand_misses
let write_hits t = t.write_hits
let write_misses t = t.write_misses
let writebacks t = t.writebacks
let evictions t = t.evictions

let reset_counters t =
  t.demand_hits <- 0;
  t.demand_misses <- 0;
  t.write_hits <- 0;
  t.write_misses <- 0;
  t.writebacks <- 0;
  t.evictions <- 0
