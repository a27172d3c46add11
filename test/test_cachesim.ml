(* Tests for the cache hierarchy simulator: single-level behaviour,
   replacement policies, the three-level hierarchy, and the
   pointer-chase workload's clean step-function steady state. *)

let cfg ?(policy = Cachesim.Replacement.Lru) size ways =
  { Cachesim.Cache.size_bytes = size; ways; line_bytes = 64; policy }

let test_config_validation () =
  Alcotest.(check bool) "valid" true (Cachesim.Cache.config_valid (cfg 4096 8));
  Alcotest.(check bool) "bad line" false
    (Cachesim.Cache.config_valid
       { (cfg 4096 8) with Cachesim.Cache.line_bytes = 48 });
  Alcotest.(check bool) "non-divisible" false
    (Cachesim.Cache.config_valid { (cfg 4096 8) with Cachesim.Cache.size_bytes = 4000 })

let test_geometry () =
  let c = Cachesim.Cache.create (cfg 4096 8) in
  Alcotest.(check int) "sets" 8 (Cachesim.Cache.sets c);
  Alcotest.(check int) "ways" 8 (Cachesim.Cache.ways c);
  Alcotest.(check int) "line" 64 (Cachesim.Cache.line_bytes c)

let test_hit_after_miss () =
  let c = Cachesim.Cache.create (cfg 4096 8) in
  Alcotest.(check bool) "first access misses" true
    (Cachesim.Cache.access c 0 = Cachesim.Cache.Miss);
  Alcotest.(check bool) "second access hits" true
    (Cachesim.Cache.access c 0 = Cachesim.Cache.Hit);
  Alcotest.(check bool) "same line hits" true
    (Cachesim.Cache.access c 63 = Cachesim.Cache.Hit);
  Alcotest.(check bool) "next line misses" true
    (Cachesim.Cache.access c 64 = Cachesim.Cache.Miss);
  Alcotest.(check int) "demand hits" 2 (Cachesim.Cache.demand_hits c);
  Alcotest.(check int) "demand misses" 2 (Cachesim.Cache.demand_misses c)

let test_lru_eviction_order () =
  (* 1 set x 2 ways: fill A, B; touch A; insert C -> B evicted. *)
  let c = Cachesim.Cache.create (cfg 128 2) in
  let addr set_stride i = i * set_stride in
  let a = addr 128 0 and b = addr 128 1 and c3 = addr 128 2 in
  ignore (Cachesim.Cache.access c a);
  ignore (Cachesim.Cache.access c b);
  ignore (Cachesim.Cache.access c a);
  ignore (Cachesim.Cache.access c c3);
  Alcotest.(check bool) "A survives" true (Cachesim.Cache.probe c a);
  Alcotest.(check bool) "B evicted" false (Cachesim.Cache.probe c b);
  Alcotest.(check bool) "C resident" true (Cachesim.Cache.probe c c3)

let test_fifo_ignores_hits () =
  let c =
    Cachesim.Cache.create (cfg ~policy:Cachesim.Replacement.Fifo 128 2)
  in
  let a = 0 and b = 128 and c3 = 256 in
  ignore (Cachesim.Cache.access c a);
  ignore (Cachesim.Cache.access c b);
  ignore (Cachesim.Cache.access c a);
  (* touching A does not refresh FIFO age *)
  ignore (Cachesim.Cache.access c c3);
  Alcotest.(check bool) "A evicted despite touch" false (Cachesim.Cache.probe c a);
  Alcotest.(check bool) "B survives" true (Cachesim.Cache.probe c b)

let test_probe_no_side_effect () =
  let c = Cachesim.Cache.create (cfg 4096 8) in
  ignore (Cachesim.Cache.probe c 0);
  Alcotest.(check int) "no demand counters" 0
    (Cachesim.Cache.demand_hits c + Cachesim.Cache.demand_misses c)

let test_prefetch_fill_not_counted () =
  let c = Cachesim.Cache.create (cfg 4096 8) in
  Cachesim.Cache.fill_prefetch c 0;
  Alcotest.(check int) "no demand traffic" 0
    (Cachesim.Cache.demand_hits c + Cachesim.Cache.demand_misses c);
  Alcotest.(check bool) "line resident" true
    (Cachesim.Cache.access c 0 = Cachesim.Cache.Hit)

let test_invalidate_all () =
  let c = Cachesim.Cache.create (cfg 4096 8) in
  ignore (Cachesim.Cache.access c 0);
  Cachesim.Cache.invalidate_all c;
  Alcotest.(check bool) "gone" false (Cachesim.Cache.probe c 0);
  (* After invalidation (and a counter reset) a used cache evicts in
     the same order as a fresh one: one set of four ways, a history
     with hits and dirty lines, then the same stream on both. *)
  List.iter
    (fun policy ->
      let used = Cachesim.Cache.create (cfg ~policy 256 4) in
      List.iter
        (fun (store, line) ->
          let addr = line * 64 in
          ignore
            (if store then Cachesim.Cache.write used addr
             else Cachesim.Cache.access used addr))
        [ (false, 0); (true, 1); (false, 2); (false, 0); (true, 3);
          (false, 4); (false, 1); (true, 5); (false, 6) ];
      Cachesim.Cache.invalidate_all used;
      Cachesim.Cache.reset_counters used;
      let fresh = Cachesim.Cache.create (cfg ~policy 256 4) in
      let stream =
        [ (false, 7); (false, 2); (true, 8); (false, 7); (false, 9);
          (false, 10); (false, 2); (true, 11); (false, 8); (false, 12);
          (false, 7); (false, 13) ]
      in
      List.iteri
        (fun i (store, line) ->
          let step c =
            let addr = line * 64 in
            if store then Cachesim.Cache.write c addr
            else Cachesim.Cache.access c addr
          in
          Alcotest.(check bool)
            (Printf.sprintf "same outcome at step %d" i)
            true
            (step used = step fresh))
        stream;
      for line = 0 to 13 do
        Alcotest.(check bool)
          (Printf.sprintf "same residency of line %d" line)
          (Cachesim.Cache.probe fresh (line * 64))
          (Cachesim.Cache.probe used (line * 64))
      done;
      Alcotest.(check int) "same evictions"
        (Cachesim.Cache.evictions fresh) (Cachesim.Cache.evictions used);
      Alcotest.(check int) "same writebacks"
        (Cachesim.Cache.writebacks fresh) (Cachesim.Cache.writebacks used))
    [ Cachesim.Replacement.Lru; Cachesim.Replacement.Fifo ]

(* ------------------------------------------------------------------ *)
(* Hierarchy                                                           *)
(* ------------------------------------------------------------------ *)

let test_hierarchy_levels () =
  let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  Alcotest.(check bool) "cold load from memory" true
    (Cachesim.Hierarchy.load h 0 = Cachesim.Hierarchy.Memory);
  Alcotest.(check bool) "now in L1" true
    (Cachesim.Hierarchy.load h 0 = Cachesim.Hierarchy.L1)

let test_hierarchy_counters () =
  let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  ignore (Cachesim.Hierarchy.load h 0);
  ignore (Cachesim.Hierarchy.load h 0);
  let c = Cachesim.Hierarchy.counters h in
  Alcotest.(check int) "accesses" 2 c.Cachesim.Hierarchy.accesses;
  Alcotest.(check int) "l1 hits" 1 c.Cachesim.Hierarchy.l1_hit;
  Alcotest.(check int) "l1 misses" 1 c.Cachesim.Hierarchy.l1_miss;
  Alcotest.(check int) "l3 misses" 1 c.Cachesim.Hierarchy.l3_miss

let test_hierarchy_l2_hit_path () =
  let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  (* Touch enough distinct lines to overflow the 4 KiB L1 (64 lines)
     but stay within the 32 KiB L2; then re-walk: all L2 hits. *)
  let lines = 256 in
  for i = 0 to lines - 1 do
    ignore (Cachesim.Hierarchy.load h (i * 64))
  done;
  Cachesim.Hierarchy.reset_counters h;
  for i = 0 to lines - 1 do
    ignore (Cachesim.Hierarchy.load h (i * 64))
  done;
  let c = Cachesim.Hierarchy.counters h in
  Alcotest.(check int) "all L1 misses" lines c.Cachesim.Hierarchy.l1_miss;
  Alcotest.(check int) "all L2 hits" lines c.Cachesim.Hierarchy.l2_hit;
  Alcotest.(check int) "no memory" 0 c.Cachesim.Hierarchy.l3_miss

let test_warm_resets_counters () =
  let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  Cachesim.Hierarchy.warm h (Array.init 10 (fun i -> i * 64));
  Alcotest.(check int) "counters clean" 0
    (Cachesim.Hierarchy.counters h).Cachesim.Hierarchy.accesses

(* ------------------------------------------------------------------ *)
(* Pointer chase                                                       *)
(* ------------------------------------------------------------------ *)

let test_chain_is_cycle_sequential () =
  let c =
    Cachesim.Pointer_chase.make ~base:0 ~pointers:10 ~stride_bytes:64
      Cachesim.Pointer_chase.Sequential
  in
  Alcotest.(check bool) "cycle" true (Cachesim.Pointer_chase.is_cycle c);
  Alcotest.(check int) "footprint" 640 (Cachesim.Pointer_chase.buffer_bytes c)

let test_chain_is_cycle_shuffled () =
  List.iter
    (fun n ->
      let rng = Numkit.Rng.create (Int64.of_int n) in
      let c =
        Cachesim.Pointer_chase.make ~base:0 ~pointers:n ~stride_bytes:64
          (Cachesim.Pointer_chase.Shuffled rng)
      in
      Alcotest.(check bool) (Printf.sprintf "cycle n=%d" n) true
        (Cachesim.Pointer_chase.is_cycle c))
    [ 1; 2; 3; 7; 64; 1000 ]

let test_chase_l1_resident_all_hits () =
  let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  let rng = Numkit.Rng.create 1L in
  let c =
    Cachesim.Pointer_chase.make ~base:0 ~pointers:32 ~stride_bytes:64
      (Cachesim.Pointer_chase.Shuffled rng)
  in
  let k = Cachesim.Pointer_chase.run h c ~accesses:1000 ~warmup:true in
  Alcotest.(check int) "all hits" 1000 k.Cachesim.Hierarchy.l1_hit;
  Alcotest.(check int) "no misses" 0 k.Cachesim.Hierarchy.l1_miss

let test_chase_oversized_all_misses () =
  (* 3x the 256 KiB L3 at 64-byte stride: every access goes to
     memory in steady state (cyclic chain + LRU). *)
  let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  let rng = Numkit.Rng.create 2L in
  let pointers = 3 * 262144 / 64 in
  let c =
    Cachesim.Pointer_chase.make ~base:0 ~pointers ~stride_bytes:64
      (Cachesim.Pointer_chase.Shuffled rng)
  in
  let k = Cachesim.Pointer_chase.run h c ~accesses:4096 ~warmup:true in
  Alcotest.(check int) "all memory" 4096 k.Cachesim.Hierarchy.l3_miss

let test_chase_warmup_removes_cold_misses () =
  let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  let c =
    Cachesim.Pointer_chase.make ~base:0 ~pointers:16 ~stride_bytes:64
      Cachesim.Pointer_chase.Sequential
  in
  let cold = Cachesim.Pointer_chase.run h c ~accesses:16 ~warmup:false in
  Alcotest.(check int) "cold misses present" 16 cold.Cachesim.Hierarchy.l1_miss;
  let h2 = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  let warm = Cachesim.Pointer_chase.run h2 c ~accesses:16 ~warmup:true in
  Alcotest.(check int) "warm has none" 0 warm.Cachesim.Hierarchy.l1_miss

let test_stride_halves_effective_capacity () =
  (* 128-byte stride touches only every other set, so a buffer that
     fits at stride 64 thrashes at stride 128 when sized past half
     the capacity. *)
  let pointers = 48 (* 48 lines: fits 64-line L1 at stride 64 *) in
  let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  let seq = Cachesim.Pointer_chase.Sequential in
  let c64 = Cachesim.Pointer_chase.make ~base:0 ~pointers ~stride_bytes:64 seq in
  let k64 = Cachesim.Pointer_chase.run h c64 ~accesses:1000 ~warmup:true in
  Alcotest.(check int) "stride 64 hits" 1000 k64.Cachesim.Hierarchy.l1_hit;
  let h2 = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  let c128 = Cachesim.Pointer_chase.make ~base:0 ~pointers ~stride_bytes:128 seq in
  let k128 = Cachesim.Pointer_chase.run h2 c128 ~accesses:1000 ~warmup:true in
  Alcotest.(check int) "stride 128 misses" 1000 k128.Cachesim.Hierarchy.l1_miss

let test_reset_matches_fresh () =
  (* A cold chase (no warmup walk, so leftover lines or pages would
     turn its cold misses into hits) on a used-then-reset hierarchy
     and TLB counts exactly what it counts on fresh ones. *)
  let chain seed pointers =
    Cachesim.Pointer_chase.make ~base:0 ~pointers ~stride_bytes:64
      (Cachesim.Pointer_chase.Shuffled (Numkit.Rng.create seed))
  in
  let cold h tlb =
    Cachesim.Pointer_chase.run_instrumented ~tlb h (chain 12L 3000)
      ~accesses:6000 ~warmup:false
  in
  let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  let tlb = Cachesim.Tlb.create Cachesim.Tlb.default_config in
  ignore
    (Cachesim.Pointer_chase.run_instrumented ~tlb h (chain 11L 5000)
       ~accesses:7000 ~warmup:true);
  Cachesim.Hierarchy.reset h;
  Cachesim.Tlb.reset tlb;
  let reused = cold h tlb in
  let fresh =
    cold
      (Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config)
      (Cachesim.Tlb.create Cachesim.Tlb.default_config)
  in
  Alcotest.(check bool) "same cache counters" true (reused.cache = fresh.cache);
  Alcotest.(check bool) "same TLB stats" true (reused.tlb = fresh.tlb)

let test_chase_allocation_free () =
  (* The measured chase allocates nothing per access: with a TLB and a
     reused hierarchy, one call allocates the same words (its result
     record) whether it runs 1000 or 9000 accesses. *)
  let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  let tlb = Cachesim.Tlb.create Cachesim.Tlb.default_config in
  let c =
    Cachesim.Pointer_chase.make ~base:0 ~pointers:4096 ~stride_bytes:64
      (Cachesim.Pointer_chase.Shuffled (Numkit.Rng.create 3L))
  in
  let words accesses =
    Cachesim.Hierarchy.reset h;
    Cachesim.Tlb.reset tlb;
    let before = Gc.minor_words () in
    ignore
      (Cachesim.Pointer_chase.run_instrumented ~tlb h c ~accesses ~warmup:true);
    Gc.minor_words () -. before
  in
  ignore (words 16);
  let short = words 1000 in
  let long = words 9000 in
  Alcotest.(check (float 0.0)) "words independent of accesses" short long

let prop_shuffled_chain_cycle =
  QCheck.Test.make ~name:"shuffled chain is a single cycle" ~count:100
    QCheck.(int_range 1 500)
    (fun n ->
      let rng = Numkit.Rng.create (Int64.of_int (n * 31)) in
      let c =
        Cachesim.Pointer_chase.make ~base:0 ~pointers:n ~stride_bytes:64
          (Cachesim.Pointer_chase.Shuffled rng)
      in
      Cachesim.Pointer_chase.is_cycle c)

let prop_counters_conserve =
  QCheck.Test.make ~name:"hit/miss counters conserve accesses" ~count:50
    QCheck.(pair (int_range 1 2000) (int_range 1 3))
    (fun (pointers, stride_mult) ->
      let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
      let rng = Numkit.Rng.create (Int64.of_int pointers) in
      let c =
        Cachesim.Pointer_chase.make ~base:0 ~pointers
          ~stride_bytes:(64 * stride_mult)
          (Cachesim.Pointer_chase.Shuffled rng)
      in
      let k = Cachesim.Pointer_chase.run h c ~accesses:512 ~warmup:true in
      k.Cachesim.Hierarchy.accesses = 512
      && k.Cachesim.Hierarchy.l1_hit + k.Cachesim.Hierarchy.l1_miss = 512
      && k.Cachesim.Hierarchy.l2_hit + k.Cachesim.Hierarchy.l2_miss
         = k.Cachesim.Hierarchy.l1_miss
      && k.Cachesim.Hierarchy.l3_hit + k.Cachesim.Hierarchy.l3_miss
         = k.Cachesim.Hierarchy.l2_miss)

let () =
  Alcotest.run "cachesim"
    [
      ( "cache",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "hit after miss" `Quick test_hit_after_miss;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction_order;
          Alcotest.test_case "FIFO ignores hits" `Quick test_fifo_ignores_hits;
          Alcotest.test_case "probe pure" `Quick test_probe_no_side_effect;
          Alcotest.test_case "prefetch fill" `Quick test_prefetch_fill_not_counted;
          Alcotest.test_case "invalidate" `Quick test_invalidate_all;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "levels" `Quick test_hierarchy_levels;
          Alcotest.test_case "counters" `Quick test_hierarchy_counters;
          Alcotest.test_case "L2 hit path" `Quick test_hierarchy_l2_hit_path;
          Alcotest.test_case "warm resets" `Quick test_warm_resets_counters;
          Alcotest.test_case "reset = fresh" `Quick test_reset_matches_fresh;
          Alcotest.test_case "chase allocation-free" `Quick test_chase_allocation_free;
        ] );
      ( "pointer-chase",
        [
          Alcotest.test_case "sequential cycle" `Quick test_chain_is_cycle_sequential;
          Alcotest.test_case "shuffled cycle" `Quick test_chain_is_cycle_shuffled;
          Alcotest.test_case "L1-resident all hits" `Quick test_chase_l1_resident_all_hits;
          Alcotest.test_case "oversized all misses" `Quick test_chase_oversized_all_misses;
          Alcotest.test_case "warmup removes cold misses" `Quick test_chase_warmup_removes_cold_misses;
          Alcotest.test_case "stride halves capacity" `Quick test_stride_halves_effective_capacity;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_shuffled_chain_cycle; prop_counters_conserve ] );
    ]
