(* Tests for the simulator substrate: event heap ordering, PRNG
   determinism and golden streams, allocation ceilings, clock semantics,
   per-location serialization, abort. *)

module E = Sim.Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Event heap                                                          *)
(* ------------------------------------------------------------------ *)

let test_heap_basic () =
  let h = Sim.Event_heap.create () in
  Alcotest.(check bool) "empty" true (Sim.Event_heap.is_empty h);
  Sim.Event_heap.push h ~time:5 ~seq:0 "a";
  Sim.Event_heap.push h ~time:3 ~seq:1 "b";
  Sim.Event_heap.push h ~time:5 ~seq:2 "c";
  Sim.Event_heap.push h ~time:1 ~seq:3 "d";
  check_int "length" 4 (Sim.Event_heap.length h);
  let pop () =
    match Sim.Event_heap.pop h with
    | Some (_, _, x) -> x
    | None -> Alcotest.fail "unexpected empty heap"
  in
  Alcotest.(check string) "first" "d" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third (same time, lower seq)" "a" (pop ());
  Alcotest.(check string) "fourth" "c" (pop ());
  Alcotest.(check bool) "empty again" true (Sim.Event_heap.is_empty h)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in (time, seq) order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let h = Sim.Event_heap.create () in
      List.iteri (fun seq time -> Sim.Event_heap.push h ~time ~seq seq) times;
      let rec drain acc =
        match Sim.Event_heap.pop h with
        | None -> List.rev acc
        | Some (time, seq, _) -> drain ((time, seq) :: acc)
      in
      let popped = drain [] in
      let sorted = List.sort compare popped in
      popped = sorted && List.length popped = List.length times)

(* ------------------------------------------------------------------ *)
(* Splitmix PRNG                                                       *)
(* ------------------------------------------------------------------ *)

module Splitmix = Engine.Splitmix

let test_splitmix_deterministic () =
  let a = Splitmix.of_int 42 and b = Splitmix.of_int 42 in
  for _ = 1 to 100 do
    check_bool "same stream" true
      (Splitmix.next_int64 a = Splitmix.next_int64 b)
  done

let test_splitmix_bounds () =
  let r = Splitmix.of_int 7 in
  for _ = 1 to 10_000 do
    let x = Splitmix.int r 13 in
    check_bool "in range" true (x >= 0 && x < 13)
  done

let test_splitmix_split_independent () =
  let base = Splitmix.of_int 99 in
  let s0 = Splitmix.split base ~index:0
  and s1 = Splitmix.split base ~index:1 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Splitmix.next_int64 s0 = Splitmix.next_int64 s1 then incr same
  done;
  check_int "streams differ" 0 !same

let test_splitmix_uniformish () =
  let r = Splitmix.of_int 123 in
  let buckets = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let b = Splitmix.int r 8 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 8 in
      check_bool
        (Printf.sprintf "bucket %d roughly uniform (%d)" i c)
        true
        (abs (c - expected) < expected / 5))
    buckets

let test_bernoulli () =
  let r = Splitmix.of_int 5 in
  let hits = ref 0 in
  let n = 40_000 in
  for _ = 1 to n do
    if Splitmix.bernoulli r ~num:1 ~den:4 then incr hits
  done;
  let expected = n / 4 in
  check_bool "p=1/4" true (abs (!hits - expected) < expected / 5);
  check_bool "p=0" false (Splitmix.bernoulli r ~num:0 ~den:5);
  check_bool "p=1" true (Splitmix.bernoulli r ~num:5 ~den:5)

(* Golden streams: the first 64 outputs of several (seed, index)
   streams, a mixed int/bool/bernoulli sequence on each, and hash3 and
   mix64 values, as printed by the boxed-[int64] implementation the
   unboxed one replaced.  Every stream must stay bit-identical, since
   each simulation is a deterministic function of them. *)
let splitmix_golden_text () =
  let b = Buffer.create 8192 in
  let streams = [ (0, 0); (1, 0); (1, 1); (42, 7); (0x5eed, 255); (-3, 1000) ] in
  List.iter
    (fun (seed, index) ->
      let r = Splitmix.stream ~seed ~index in
      Printf.bprintf b "raw %d %d:" seed index;
      for _ = 1 to 64 do
        Printf.bprintf b " %Lx" (Splitmix.next_int64 r)
      done;
      Buffer.add_char b '\n';
      let r = Splitmix.stream ~seed ~index in
      Printf.bprintf b "mixed %d %d:" seed index;
      for i = 1 to 64 do
        match i mod 4 with
        | 0 -> Printf.bprintf b " %d" (Splitmix.int r (1 + (i * 37)))
        | 1 -> Printf.bprintf b " %d" (Splitmix.int r max_int)
        | 2 -> Printf.bprintf b " %b" (Splitmix.bool r)
        | _ -> Printf.bprintf b " %b" (Splitmix.bernoulli r ~num:i ~den:67)
      done;
      Buffer.add_char b '\n')
    streams;
  let r = Splitmix.of_int 7 in
  Buffer.add_string b "of_int 7:";
  for _ = 1 to 64 do
    Printf.bprintf b " %Lx" (Splitmix.next_int64 r)
  done;
  Buffer.add_string b "\nhash3:";
  List.iter
    (fun (x, y, z) -> Printf.bprintf b " %d" (Splitmix.hash3 x y z))
    [ (0, 0, 0); (1, 0, 0); (0, 1, 0); (0, 0, 1); (7, 3, 1); (-1, -2, -3);
      (max_int, min_int, 12345); (0x5eed, 42, 99) ];
  Buffer.add_string b "\nmix64:";
  List.iter
    (fun z -> Printf.bprintf b " %Lx" (Splitmix.mix64 z))
    [ 0L; 1L; -1L; 0x9E3779B97F4A7C15L ];
  Buffer.add_char b '\n';
  Buffer.contents b

let test_splitmix_golden () =
  let expected =
    In_channel.with_open_bin
      (Filename.concat "fixtures" "splitmix_golden.txt")
      In_channel.input_all
  in
  Alcotest.(check string) "streams bit-identical" expected
    (splitmix_golden_text ())

(* Golden fire order: seeded programs that mix reads and fetch&adds on
   four shared cells with delays drawn from [1, 50] and [1, 50000], so
   completion times span many 4096-cycle windows of the event queue's
   wheel and spill into its fallback heap.  Each processor records
   [(pid, now)] after every step, so the text is the order in which the
   simulator fired events and the clock at each.  The fixture was
   printed by the plain binary heap the bucketed queue replaced; the
   queue must reproduce it exactly. *)
let fire_order_text () =
  let b = Buffer.create 65536 in
  List.iter
    (fun (procs, steps, seed) ->
      let cells = Array.init 4 (fun _ -> E.cell 0) in
      Printf.bprintf b "procs %d seed %d\n" procs seed;
      let stats =
        Sim.run ~seed ~procs (fun pid ->
            for _ = 1 to steps do
              let c = cells.(E.random_int (Array.length cells)) in
              (match E.random_int 4 with
              | 0 -> ignore (E.get c)
              | 1 -> ignore (E.fetch_and_add c 1)
              | 2 -> E.delay (1 + E.random_int 50)
              | _ -> E.delay (1 + E.random_int 50_000));
              Printf.bprintf b "%d %d\n" pid (E.now ())
            done)
      in
      Printf.bprintf b "end %d events %d\n" stats.Sim.end_clock
        stats.Sim.events_fired)
    [ (1, 300, 1); (2, 300, 7); (64, 30, 42) ];
  Buffer.contents b

let test_fire_order_golden () =
  let expected =
    In_channel.with_open_bin
      (Filename.concat "fixtures" "fire_order_golden.txt")
      In_channel.input_all
  in
  Alcotest.(check string) "fire order identical" expected (fire_order_text ())

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* The generator keeps its state unboxed: draws allocate nothing. *)
let test_splitmix_no_alloc () =
  let r = Splitmix.stream ~seed:1 ~index:0 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 100_000 do
    acc := !acc + Splitmix.int r 100 + Splitmix.hash3 i 2 3;
    if Splitmix.bool r then incr acc;
    if Splitmix.bernoulli r ~num:1 ~den:3 then incr acc
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check (float 0.)) "minor words over 100k draws" 0. words

(* Minor words per simulated event of 16 processors looping over a
   delay, a read and a fetch&add on one shared cell.  The scheduler's
   per-event bookkeeping lives in one reusable slot per processor, so
   what remains per event is the effect payload, its continuation, the
   memory op's hand-off closure and the pending-state block.  Measured
   at 13.34 words/event (x86_64, OCaml 5.1.1); the ceiling leaves a
   small margin so a new per-event allocation fails here rather than
   only in the benchmark. *)
let words_per_event_ceiling = 15.0

let test_words_per_event () =
  let c = E.cell 0 in
  let before = Gc.minor_words () in
  let stats =
    Sim.run ~seed:1 ~procs:16 (fun _ ->
        for _ = 1 to 2_000 do
          E.delay 3;
          ignore (E.get c);
          ignore (E.fetch_and_add c 1)
        done)
  in
  let words = Gc.minor_words () -. before in
  let per_event = words /. float_of_int stats.events_fired in
  check_bool
    (Printf.sprintf "%.2f words/event <= %.1f" per_event
       words_per_event_ceiling)
    true
    (per_event <= words_per_event_ceiling)

(* ------------------------------------------------------------------ *)
(* Scheduler semantics                                                 *)
(* ------------------------------------------------------------------ *)

let cfg = Sim.Memory.default_config

let test_delay_advances_clock () =
  let stats = Sim.run ~procs:1 (fun _ -> E.delay 100; E.delay 23) in
  check_int "clock = total delay" 123 stats.end_clock

let test_now () =
  let seen = ref (-1) in
  let _ = Sim.run ~procs:1 (fun _ ->
      E.delay 50;
      seen := E.now ())
  in
  check_int "now reflects delays" 50 !seen

let test_pid_and_nprocs () =
  let pids = ref [] in
  let _ =
    Sim.run ~procs:5 (fun p ->
        check_int "pid matches body arg" p (E.pid ());
        check_int "nprocs" 5 (E.nprocs ());
        pids := p :: !pids)
  in
  Alcotest.(check (list int)) "all pids ran" [ 0; 1; 2; 3; 4 ]
    (List.sort compare !pids)

let test_rmw_serializes () =
  (* n processors all fetch&add the same cell at time 0: the location
     chain forces completion at n * rmw_latency, and each gets a distinct
     previous value. *)
  let n = 8 in
  let results = Array.make n (-1) in
  let c = E.cell 0 in
  let stats =
    Sim.run ~procs:n (fun p -> results.(p) <- E.fetch_and_add c 1)
  in
  check_int "serialized completion" (n * cfg.rmw_latency) stats.end_clock;
  let sorted = Array.to_list results |> List.sort compare in
  Alcotest.(check (list int)) "distinct previous values"
    (List.init n Fun.id) sorted

let test_reads_do_not_serialize () =
  let c = E.cell 7 in
  let stats = Sim.run ~procs:16 (fun _ -> ignore (E.get c)) in
  check_int "parallel reads" cfg.read_latency stats.end_clock

let test_writes_serialize () =
  let c = E.cell 0 in
  let stats = Sim.run ~procs:4 (fun p -> E.set c p) in
  check_int "serialized writes" (4 * cfg.write_latency) stats.end_clock

let test_exchange_chain () =
  (* Exchanges on one cell form a permutation chain: the multiset of
     {initial value} U {written values} minus one final survivor equals
     the multiset of returned values. *)
  let n = 6 in
  let c = E.cell (-1) in
  let got = Array.make n min_int in
  let _ = Sim.run ~procs:n (fun p -> got.(p) <- E.exchange c p) in
  let final = ref min_int in
  let _ = Sim.run ~procs:1 (fun _ -> final := E.get c) in
  let all = (-1) :: List.init n Fun.id in
  let returned = Array.to_list got in
  let expected = List.filter (fun x -> x <> !final) all in
  Alcotest.(check (list int)) "exchange conserves values"
    (List.sort compare expected)
    (List.sort compare returned)

let test_cas_single_winner () =
  let n = 10 in
  let c = E.cell 0 in
  let wins = ref 0 in
  let _ =
    Sim.run ~procs:n (fun p ->
        if E.compare_and_set c 0 (p + 1) then incr wins)
  in
  check_int "exactly one CAS wins" 1 !wins

let test_cas_physical_equality () =
  let _ =
    Sim.run ~procs:1 (fun _ ->
        let r = E.cell (ref 5) in
        let seen = E.get r in
        check_bool "cas against read value succeeds" true
          (E.compare_and_set r seen (ref 6));
        check_bool "cas against equal-but-distinct value fails" false
          (E.compare_and_set r (ref 6) (ref 7)))
  in
  ()

let test_determinism () =
  let trace seed =
    let log = ref [] in
    let c = E.cell 0 in
    let stats =
      Sim.run ~seed ~procs:7 (fun p ->
          for _ = 1 to 5 do
            E.delay (E.random_int 50);
            let v = E.fetch_and_add c 1 in
            log := (p, v, E.now ()) :: !log
          done)
    in
    (stats, !log)
  in
  let s1, l1 = trace 11 and s2, l2 = trace 11 in
  check_bool "stats equal" true (s1 = s2);
  check_bool "traces equal" true (l1 = l2);
  let _, l3 = trace 12 in
  check_bool "different seed, different trace" true (l1 <> l3)

let test_abort () =
  let stats =
    Sim.run ~procs:3 ~abort_after:1000 (fun _ ->
        while true do
          E.delay 10
        done)
  in
  check_int "all procs aborted" 3 stats.aborted_procs;
  check_bool "clock stopped near horizon" true (stats.end_clock <= 1000)

let test_abort_partial () =
  (* One proc finishes before the horizon, one spins forever. *)
  let stats =
    Sim.run ~procs:2 ~abort_after:500 (fun p ->
        if p = 0 then E.delay 10
        else
          while true do
            E.delay 10
          done)
  in
  check_int "one aborted" 1 stats.aborted_procs

(* A processor cut off by [abort_after] whose cleanup performs an engine
   op: the cleanup's own op is in flight when the run drains, so it is
   aborted too.  Under [Fun.protect] that surfaces as [Finally_raised
   Aborted], which must count as an abort rather than escape [Sim.run].
   The controller's drain takes the same path. *)
let test_abort_cleanup_protect () =
  let c = E.cell 0 in
  let stats =
    Sim.run ~procs:2 ~abort_after:10 (fun _ ->
        Fun.protect ~finally:(fun () -> E.set c 1) (fun () -> E.delay 100))
  in
  check_int "both aborted" 2 stats.aborted_procs;
  check_int "cleanup write dropped in flight" 0 c.v

let test_abort_cleanup_try () =
  let c = E.cell 0 in
  let stats =
    Sim.run ~procs:2 ~abort_after:10 (fun _ ->
        try E.delay 100 with Sim.Aborted -> E.set c 2)
  in
  check_int "both aborted" 2 stats.aborted_procs;
  check_int "cleanup write dropped in flight" 0 c.v

let test_abort_cleanup_controller () =
  let c = E.cell 0 in
  let stats =
    Sim.run ~procs:2 ~controller:(fun _ -> Sim.Scheduler.Quit) (fun _ ->
        Fun.protect
          ~finally:(fun () -> E.set c 1)
          (fun () -> ignore (E.get c)))
  in
  check_int "both aborted" 2 stats.aborted_procs;
  check_int "cleanup write dropped" 0 c.v

let test_nested_runs () =
  let inner_clock = ref 0 in
  let stats =
    Sim.run ~procs:1 (fun _ ->
        E.delay 5;
        let inner = Sim.run ~procs:1 (fun _ -> E.delay 42) in
        inner_clock := inner.end_clock;
        (* Outer simulation resumes with its own clock. *)
        E.delay 5)
  in
  check_int "inner clock" 42 !inner_clock;
  check_int "outer clock" 10 stats.end_clock

let test_outside_run_raises () =
  Alcotest.check_raises "engine op outside Sim.run"
    (Failure "Sim: a simulated-engine operation was performed outside Sim.run")
    (fun () -> ignore (E.get (E.cell 0)))

let test_exception_propagates () =
  Alcotest.check_raises "proc exception escapes Sim.run" Exit (fun () ->
      ignore
        (Sim.run ~procs:2 (fun p ->
             E.delay 10;
             if p = 1 then raise Exit)))

let test_custom_config () =
  (* The cost model is configurable per run. *)
  let cfg = Sim.Memory.uniform_config in
  let c = E.cell 0 in
  let stats =
    Sim.run ~config:cfg ~procs:4 (fun _ -> ignore (E.fetch_and_add c 1))
  in
  check_int "uniform rmw latency" 4 stats.end_clock;
  let c2 = E.cell 0 in
  let stats2 = Sim.run ~config:cfg ~procs:8 (fun _ -> ignore (E.get c2)) in
  check_int "uniform read latency" 1 stats2.end_clock

let test_op_counters () =
  let c = E.cell 0 in
  let stats =
    Sim.run ~procs:2 (fun _ ->
        ignore (E.get c);
        E.set c 1;
        ignore (E.exchange c 2);
        ignore (E.compare_and_set c 2 3);
        ignore (E.fetch_and_add c 1))
  in
  check_int "reads counted" 2 stats.reads;
  check_int "writes counted" 2 stats.writes;
  check_int "rmws counted" 6 stats.rmws

let test_serialized_reads_config () =
  let cfg = Sim.Memory.serialized_reads_config in
  let c = E.cell 7 in
  let stats = Sim.run ~config:cfg ~procs:4 (fun _ -> ignore (E.get c)) in
  check_int "reads queue under the ablation model"
    (4 * cfg.read_latency) stats.end_clock

let test_rng_streams_differ () =
  let draws = Array.make 4 (-1) in
  let _ = Sim.run ~procs:4 (fun p -> draws.(p) <- E.random_int 1_000_000) in
  let distinct =
    Array.to_list draws |> List.sort_uniq compare |> List.length
  in
  check_bool "per-proc streams decorrelated" true (distinct >= 3)

let prop_serialization_chain =
  QCheck.Test.make ~name:"busy chain: k rmws on one cell take k*latency"
    ~count:50
    QCheck.(int_range 1 40)
    (fun k ->
      let c = E.cell 0 in
      let stats = Sim.run ~procs:k (fun _ -> ignore (E.fetch_and_add c 1)) in
      stats.end_clock = k * cfg.rmw_latency)

let () =
  Alcotest.run "sim"
    [
      ( "event_heap",
        [
          Alcotest.test_case "basic ordering" `Quick test_heap_basic;
          QCheck_alcotest.to_alcotest prop_heap_sorted;
          Alcotest.test_case "golden fire order" `Quick test_fire_order_golden;
        ] );
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "bounds" `Quick test_splitmix_bounds;
          Alcotest.test_case "split independence" `Quick
            test_splitmix_split_independent;
          Alcotest.test_case "roughly uniform" `Quick test_splitmix_uniformish;
          Alcotest.test_case "bernoulli" `Quick test_bernoulli;
          Alcotest.test_case "golden streams" `Quick test_splitmix_golden;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "splitmix draws allocate nothing" `Quick
            test_splitmix_no_alloc;
          Alcotest.test_case "words per simulated event" `Quick
            test_words_per_event;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "delay advances clock" `Quick
            test_delay_advances_clock;
          Alcotest.test_case "now" `Quick test_now;
          Alcotest.test_case "pid/nprocs" `Quick test_pid_and_nprocs;
          Alcotest.test_case "rmw serializes" `Quick test_rmw_serializes;
          Alcotest.test_case "reads parallel" `Quick
            test_reads_do_not_serialize;
          Alcotest.test_case "writes serialize" `Quick test_writes_serialize;
          Alcotest.test_case "exchange chain" `Quick test_exchange_chain;
          Alcotest.test_case "cas single winner" `Quick test_cas_single_winner;
          Alcotest.test_case "cas physical equality" `Quick
            test_cas_physical_equality;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "abort" `Quick test_abort;
          Alcotest.test_case "abort partial" `Quick test_abort_partial;
          Alcotest.test_case "abort: Fun.protect cleanup" `Quick
            test_abort_cleanup_protect;
          Alcotest.test_case "abort: try-with cleanup" `Quick
            test_abort_cleanup_try;
          Alcotest.test_case "abort: cleanup under a controller" `Quick
            test_abort_cleanup_controller;
          Alcotest.test_case "nested runs" `Quick test_nested_runs;
          Alcotest.test_case "ops outside run raise" `Quick
            test_outside_run_raises;
          Alcotest.test_case "rng streams differ" `Quick
            test_rng_streams_differ;
          Alcotest.test_case "custom memory config" `Quick test_custom_config;
          Alcotest.test_case "proc exceptions propagate" `Quick
            test_exception_propagates;
          Alcotest.test_case "op counters" `Quick test_op_counters;
          Alcotest.test_case "serialized-reads model" `Quick
            test_serialized_reads_config;
          QCheck_alcotest.to_alcotest prop_serialization_chain;
        ] );
    ]
